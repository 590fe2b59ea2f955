//! Live-kernel coverage collection tests.

use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_trace::{InitDetector, Tracer};
use dynacut_vm::{Kernel, LoadSpec, Sysno, EXE_BASE};

/// A program with an init phase (touches `init_only`), then an event-ish
/// loop that calls `hot` a few times, never calling `cold`.
fn phased_program() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.call("init_only");
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, 1)); // "initialized"
    asm.push(Insn::Syscall);
    // Idle between phases, like a server waiting for its first request —
    // gives the host a deterministic window to nudge the tracer.
    asm.push(Insn::Movi(Reg::R0, Sysno::Nanosleep as u64));
    asm.push(Insn::Movi(Reg::R1, 100_000));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R9, 3));
    asm.label("loop");
    asm.call("hot");
    asm.push(Insn::Addi(Reg::R9, -1));
    asm.push(Insn::Cmpi(Reg::R9, 0));
    asm.jcc(Cond::Ne, "loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    asm.func("init_only");
    asm.push(Insn::Movi(Reg::R1, 111));
    asm.push(Insn::Ret);
    asm.func("hot");
    asm.push(Insn::Movi(Reg::R2, 222));
    asm.push(Insn::Ret);
    asm.func("cold");
    asm.push(Insn::Movi(Reg::R3, 333));
    asm.push(Insn::Ret);
    let mut builder = ModuleBuilder::new("phased", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

#[test]
fn coverage_distinguishes_init_hot_and_cold() {
    let exe = phased_program();
    let init_blocks: Vec<_> = exe.blocks_of_function("init_only");
    let hot_blocks: Vec<_> = exe.blocks_of_function("hot");
    let cold_blocks: Vec<_> = exe.blocks_of_function("cold");
    assert!(!init_blocks.is_empty() && !hot_blocks.is_empty() && !cold_blocks.is_empty());

    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe.clone())).unwrap();
    tracer.track(&kernel, pid).unwrap();

    // Run until the init marker, then nudge.
    kernel.run_until_event(1, 1_000_000).expect("init marker");
    let init_cov = tracer.nudge();
    // Run to completion; dump serving coverage.
    kernel.run_until_exit(pid, 1_000_000).expect("exits");
    let serving_cov = tracer.snapshot();

    let init_set = init_cov.blocks_of("phased");
    let serving_set = serving_cov.blocks_of("phased");

    // init_only executed before the nudge, not after.
    for block in &init_blocks {
        assert!(
            init_set.contains(block),
            "init block missing from init phase"
        );
        assert!(
            !serving_set.contains(block),
            "init block wrongly in serving phase"
        );
    }
    // hot executed after the nudge.
    for block in &hot_blocks {
        assert!(serving_set.contains(block), "hot block missing");
    }
    // cold never executed.
    for block in &cold_blocks {
        assert!(!init_set.contains(block));
        assert!(!serving_set.contains(block));
    }
}

#[test]
fn coverage_counts_are_deduplicated() {
    let exe = phased_program();
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    tracer.track(&kernel, pid).unwrap();
    kernel.run_until_exit(pid, 1_000_000).unwrap();
    let log = tracer.snapshot();
    // `hot` ran three times but its block appears once.
    let hot_offset = {
        let exe = &kernel.process(pid).unwrap().modules.last().unwrap().image;
        exe.symbols["hot"].offset
    };
    let count = log
        .blocks_of("phased")
        .iter()
        .filter(|b| b.addr == hot_offset)
        .count();
    assert_eq!(count, 1);
}

#[test]
fn module_table_records_load_addresses() {
    let exe = phased_program();
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    tracer.track(&kernel, pid).unwrap();
    kernel.run_until_exit(pid, 1_000_000).unwrap();
    let log = tracer.snapshot();
    let module = log.module("phased").expect("module registered");
    assert_eq!(module.base, EXE_BASE);
    assert!(module.end > module.base);
}

#[test]
fn drcov_text_round_trips_live_coverage() {
    let exe = phased_program();
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    tracer.track(&kernel, pid).unwrap();
    kernel.run_until_exit(pid, 1_000_000).unwrap();
    let log = tracer.snapshot();
    let parsed = dynacut_trace::TraceLog::from_drcov_text(&log.to_drcov_text()).unwrap();
    assert_eq!(parsed, log);
}

#[test]
fn first_accept_detector_spots_server_transition() {
    // Server program: bind/listen/accept.
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Socket as u64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Bind as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Movi(Reg::R2, 7777));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Listen as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Accept as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("mini_server", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[]).unwrap();

    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    tracer.track(&kernel, pid).unwrap();
    kernel.run_for(100_000);
    let observations = tracer.drain_syscalls();
    let index = InitDetector::FirstAccept
        .detect(&observations, pid)
        .expect("accept observed");
    // Everything before the accept is setup.
    assert!(observations[..index]
        .iter()
        .any(|&(_, nr)| nr == Sysno::Listen as u64));
}
