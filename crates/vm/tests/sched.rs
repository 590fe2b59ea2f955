//! Preemptive MLFQ scheduler battery (DESIGN §14).
//!
//! The run loop is a four-level MLFQ plus a wait-object registry (timer
//! heap, per-connection read wake lists, per-port accept wake lists).
//! These tests pin the contracts the rest of the suite leans on:
//!
//! * every runnable process makes progress within a boost window — no
//!   starvation regardless of level,
//! * blocked processes burn zero quanta (the registry wakes them, the
//!   run loop never polls them),
//! * wake lists never wake the wrong process — traffic on one
//!   connection leaves a reader blocked on another untouched,
//! * a single-process workload lands on pinned golden
//!   `state_fingerprint` hashes after every pump,
//! * `run_until_event` survives the flight journal wrapping (the
//!   raw-index scan regression), and the pump chunk is one named
//!   tunable.

use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_vm::{
    EventKind, FlightRecorder, Kernel, LoadSpec, Pid, RunOutcome, Sysno, BOOST_INTERVAL_NS,
    DEFAULT_PUMP_CHUNK_NS,
};
use proptest::prelude::*;

fn build_exe(asm: &mut Assembler, configure: impl FnOnce(&mut ModuleBuilder)) -> Image {
    let mut builder = ModuleBuilder::new("sched_app", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    configure(&mut builder);
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

/// Compute-bound guest: increments a register forever. Never blocks,
/// never exits — the pure CPU hog every fairness property needs.
fn busy_loop() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.label("spin");
    asm.push(Insn::Addi(Reg::R5, 1));
    asm.jmp("spin");
    build_exe(&mut asm, |_| {})
}

/// Guest that blocks forever: `read(0, buf, 1)` on the console never
/// becomes ready, so after a handful of setup instructions the process
/// parks in `Blocked(ReadFd)` for good.
fn console_reader() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Read as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Movi(Reg::R3, 1));
    asm.push(Insn::Syscall);
    build_exe(&mut asm, |b| {
        b.bss("buf", 8);
    })
}

/// Guest that sleeps in a loop: `nanosleep(period)` forever. Exercises
/// the timer heap and the idle fast-forward.
fn sleeper(period_ns: u64) -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.label("zzz");
    asm.push(Insn::Movi(Reg::R0, Sysno::Nanosleep as u64));
    asm.push(Insn::Movi(Reg::R1, period_ns));
    asm.push(Insn::Syscall);
    asm.jmp("zzz");
    build_exe(&mut asm, |_| {})
}

/// Guest that emits one event code and exits.
fn emitter(code: u64) -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, code));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    build_exe(&mut asm, |_| {})
}

/// Echo server on `port`, emitting `ready_code` once listening.
fn echo_server(port: u16, ready_code: u64) -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Socket as u64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Bind as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Movi(Reg::R2, port as u64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Listen as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, ready_code));
    asm.push(Insn::Syscall);
    asm.label("accept_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Accept as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R11, Reg::R0));
    asm.label("serve_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Read as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "accept_loop");
    asm.push(Insn::Mov(Reg::R12, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Mov(Reg::R3, Reg::R12));
    asm.push(Insn::Syscall);
    asm.jmp("serve_loop");
    build_exe(&mut asm, |b| {
        b.bss("buf", 64);
    })
}

fn retired(kernel: &Kernel, pid: Pid) -> u64 {
    kernel.process(pid).unwrap().insns_retired
}

// ----- run_until_event: journal wrap regression --------------------------

/// `run_until_event` used to anchor its incremental rescans on the raw
/// buffer index (`scanned = events.len()`): once the bounded ring
/// dropped its oldest entries, the index pointed past every new event
/// and the scan silently missed them. Pre-fill a four-event flight
/// journal so the guest's event forces a drop, then demand the event is
/// still found — anchoring on the monotonic `seq` instead of the index.
#[test]
fn run_until_event_survives_ring_wrap() {
    let mut kernel = Kernel::new();
    *kernel.flight_mut() = FlightRecorder::with_capacity(4);
    let pid = kernel.spawn(&LoadSpec::exe_only(emitter(42))).unwrap();
    // Fill the journal: seqs 0..=3 occupy all four slots, so the
    // guest's event (seq 4) evicts seq 0 and lands at buffer index 3 —
    // behind the old raw-index anchor of 4.
    for _ in 0..4 {
        kernel.inject_event(pid, 7);
    }
    assert_eq!(kernel.flight().next_seq(), 4);
    assert_eq!(kernel.flight().dropped(), 0);

    let event = kernel
        .run_until_event(42, 1_000_000)
        .expect("event found despite the journal dropping its oldest entry");
    assert_eq!(event.kind, EventKind::GuestMarker { code: 42 });
    assert_eq!(event.pid, Some(pid));
    assert_eq!(event.seq, 4);
    assert_eq!(
        kernel.flight().dropped(),
        1,
        "capacity 4 dropped exactly one"
    );
}

/// With headroom in the journal nothing is dropped and the same scan
/// still terminates on the first match.
#[test]
fn run_until_event_unwrapped_baseline() {
    let mut kernel = Kernel::new();
    kernel.spawn(&LoadSpec::exe_only(emitter(42))).unwrap();
    let event = kernel.run_until_event(42, 1_000_000).expect("event");
    assert_eq!(event.kind, EventKind::GuestMarker { code: 42 });
    assert_eq!(kernel.flight().dropped(), 0);
}

// ----- pump chunk: one named tunable ------------------------------------

#[test]
fn pump_chunk_is_tunable_and_clamped() {
    let mut kernel = Kernel::new();
    assert_eq!(kernel.pump_chunk_ns(), DEFAULT_PUMP_CHUNK_NS);
    kernel.set_pump_chunk_ns(123);
    assert_eq!(kernel.pump_chunk_ns(), 123);
    // A zero chunk would spin `run_until_*` forever without moving the
    // clock: clamped to 1.
    kernel.set_pump_chunk_ns(0);
    assert_eq!(kernel.pump_chunk_ns(), 1);

    // The pumps still make progress at a pathological chunk size.
    kernel.set_pump_chunk_ns(100);
    kernel.spawn(&LoadSpec::exe_only(emitter(9))).unwrap();
    assert!(kernel.run_until_event(9, 1_000_000).is_some());
}

// ----- scheduler metrics and dispatch trace -----------------------------

/// Compute-bound guests burn full quanta, so they demote level by
/// level; a long enough run crosses the boost interval and promotes
/// them back. All of it shows up in the `sched.*` counters, and the
/// dispatch trace stays out of the flight journal unless asked for.
#[test]
fn mlfq_counters_and_optional_trace() {
    let mut kernel = Kernel::new();
    kernel.spawn(&LoadSpec::exe_only(busy_loop())).unwrap();
    kernel.spawn(&LoadSpec::exe_only(busy_loop())).unwrap();
    kernel.run_for(3 * BOOST_INTERVAL_NS);

    let metrics = kernel.flight().metrics();
    assert!(metrics.counter("sched.quanta") > 0);
    assert!(
        metrics.counter("sched.demotions") > 0,
        "busy loops burn full quanta and demote"
    );
    assert!(
        metrics.counter("sched.boosts") > 0,
        "a 3x boost-interval run crosses the boost at least once"
    );
    assert_eq!(
        kernel.flight().len(),
        0,
        "dispatch trace is off by default — it would flood the journal"
    );

    kernel.set_sched_trace(true);
    kernel.run_for(10_000);
    assert!(
        !kernel.flight().is_empty(),
        "ContextSwitch events journalled once tracing is on"
    );
}

/// A lone sleeper leaves the run queues empty between wake-ups: the
/// loop fast-forwards the clock off the timer heap instead of spinning,
/// and accounts the skipped time as idle.
#[test]
fn idle_fast_forward_accounts_idle_time() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(sleeper(5_000))).unwrap();
    let outcome = kernel.run_for(100_000);
    // The window ends mid-sleep with nothing runnable: Idle, at the
    // full deadline.
    assert_eq!(outcome, RunOutcome::Idle);
    assert_eq!(kernel.clock_ns(), 100_000);
    assert!(
        kernel.flight().metrics().counter("sched.idle_ns") > 50_000,
        "most of the window is idle between sleeps"
    );
    // The sleeper kept waking: ~20 sleep cycles of a few insns each.
    assert!(retired(&kernel, pid) > 20);
    assert!(kernel.flight().metrics().counter("sched.wakeups") >= 10);
}

// ----- proptest battery -------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No starvation: every compute-bound guest retires instructions
    /// within two boost windows, regardless of how many compete —
    /// demotion can never push a runnable process off the CPU for good.
    #[test]
    fn every_runnable_guest_progresses(n in 1usize..6) {
        let mut kernel = Kernel::new();
        let pids: Vec<Pid> = (0..n)
            .map(|_| kernel.spawn(&LoadSpec::exe_only(busy_loop())).unwrap())
            .collect();
        kernel.run_for(2 * BOOST_INTERVAL_NS);
        for pid in pids {
            prop_assert!(
                retired(&kernel, pid) > 0,
                "pid {pid} starved across two boost windows"
            );
        }
    }

    /// Blocked guests burn zero quanta: once the console reader parks,
    /// arbitrary further scheduling of busy guests never dispatches it.
    #[test]
    fn blocked_guests_burn_zero_quanta(
        slices in proptest::collection::vec(1_000u64..30_000, 1..8),
    ) {
        let mut kernel = Kernel::new();
        let reader = kernel.spawn(&LoadSpec::exe_only(console_reader())).unwrap();
        kernel.run_for(10_000);
        let parked_at = retired(&kernel, reader);
        prop_assert!(!kernel.process(reader).unwrap().is_runnable());

        kernel.spawn(&LoadSpec::exe_only(busy_loop())).unwrap();
        kernel.spawn(&LoadSpec::exe_only(busy_loop())).unwrap();
        for ns in slices {
            kernel.run_for(ns);
        }
        prop_assert_eq!(
            retired(&kernel, reader),
            parked_at,
            "a console read never becomes ready; the reader must not run"
        );
        prop_assert!(!kernel.process(reader).unwrap().is_runnable());
    }

    /// Wake lists target the right process: with two echo servers each
    /// blocked reading its own connection, traffic on one leaves the
    /// other's instruction count untouched.
    #[test]
    fn wake_lists_never_wake_the_wrong_pid(first in any::<bool>()) {
        let mut kernel = Kernel::new();
        // Boot sequentially: `run_until_event` only scans events newer
        // than the call, so booting both at once would let B's
        // readiness marker land during A's wait and be skipped.
        let pid_a = kernel
            .spawn(&LoadSpec::exe_only(echo_server(8080, 1)))
            .unwrap();
        kernel.run_until_event(1, 10_000_000).expect("a ready");
        let pid_b = kernel
            .spawn(&LoadSpec::exe_only(echo_server(8081, 2)))
            .unwrap();
        kernel.run_until_event(2, 10_000_000).expect("b ready");
        let conn_a = kernel.client_connect(8080).unwrap();
        let conn_b = kernel.client_connect(8081).unwrap();
        // Both servers accept, then block reading their connection.
        kernel.run_for(100_000);
        prop_assert!(!kernel.process(pid_a).unwrap().is_runnable());
        prop_assert!(!kernel.process(pid_b).unwrap().is_runnable());

        let (hot_conn, hot, cold) = if first {
            (conn_a, pid_a, pid_b)
        } else {
            (conn_b, pid_b, pid_a)
        };
        let cold_retired = retired(&kernel, cold);
        let reply = kernel.client_request(hot_conn, b"ping", 1_000_000).unwrap();
        prop_assert_eq!(reply, b"ping".to_vec());
        prop_assert!(retired(&kernel, hot) > cold_retired.min(retired(&kernel, hot)));
        prop_assert_eq!(
            retired(&kernel, cold),
            cold_retired,
            "traffic on one connection woke the other server"
        );
    }
}

// ----- golden single-process fingerprints -------------------------------

/// Pump slices for the golden runs: short and long, below and above a
/// sleep period and a boost interval.
const GOLDEN_SLICES: [u64; 10] = [
    500, 1_234, 40_000, 7_777, 3_000, 25_000, 999, 12_345, 600, 33_333,
];

/// FNV-1a 64 — a hash whose output is fixed by its definition, unlike
/// `DefaultHasher`, whose output may change between toolchains.
fn fnv1a64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Single-process goldens: with one guest there is nothing to
/// interleave, so how the scheduler slices a pump must be invisible —
/// for a sleeper, and for a busy loop that demotes through every MLFQ
/// level and is boosted back. Each program is pumped through
/// [`GOLDEN_SLICES`] and its hashed `state_fingerprint()` checked after
/// every pump. The hashes were captured from the cooperative
/// round-robin pump that preceded the MLFQ (fixed 256-instruction
/// quanta, a full scan of blocked processes per pass); the MLFQ matched
/// it at every step. When the kernel's guest event ring was deleted,
/// the fingerprint header lost its ` events=0`; each pin was re-derived
/// from the kernel before that deletion, as the FNV-1a of its
/// fingerprint text with that one substring removed, not captured from
/// the new kernel.
#[test]
fn single_process_fingerprints_match_golden_values() {
    let programs = [
        (
            "sleeper",
            sleeper(3_000),
            [
                0xd36f_6dc5_ec42_2341,
                0x68f0_fceb_f121_5b0d,
                0x4d9c_ab2e_6f21_9b34,
                0x867e_2abe_0bf1_1adb,
                0xb4cd_c53c_f91e_6359,
                0xcfb2_aa16_4069_4d29,
                0x9c15_dcf3_b54a_96dd,
                0x9c7b_80c4_470d_ad07,
                0x234c_a436_4746_1dc8,
                0xb2ad_9a4f_e0fd_e35f,
            ],
        ),
        (
            "busy_loop",
            busy_loop(),
            [
                0xf1cb_bc74_dbb6_ffb5,
                0xfd15_9d29_a86f_786a,
                0xb2e5_e068_7b57_df33,
                0x7120_4ad0_628c_4654,
                0x3313_671e_f876_9f23,
                0x213e_6f02_2728_3832,
                0x3691_515f_e950_7980,
                0x5202_d55d_7bd0_886e,
                0xe51d_f3d2_e45d_f623,
                0x1266_6442_457b_21ae,
            ],
        ),
    ];
    for (name, image, golden) in programs {
        let mut kernel = Kernel::new();
        kernel.spawn(&LoadSpec::exe_only(image)).unwrap();
        for (step, (ns, want)) in GOLDEN_SLICES.iter().zip(golden).enumerate() {
            kernel.run_for(*ns);
            assert_eq!(
                fnv1a64(&kernel.state_fingerprint()),
                want,
                "{name}: fingerprint drifted after pump {step} ({ns} ns)"
            );
        }
    }
}
