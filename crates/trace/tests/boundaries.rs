//! Boundary tests for the drcov field widths.
//!
//! drcov narrows block offsets to `u32` and module ids to `u16`. These
//! tests pin the contract at and around those limits: values that fit
//! round-trip losslessly, values that do not fit fail with a typed
//! [`TraceError`] instead of silently truncating (the aliasing bug that
//! would corrupt tracediff).

use dynacut_isa::{Assembler, BasicBlock, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_trace::{BlockRecord, ModuleRecord, TraceError, TraceLog, Tracer};
use dynacut_vm::{Kernel, LoadSpec, LoadedModule, Pid, Sysno};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A minimal runnable executable (exit(0)) whose image we can clone and
/// distort for the tracer registration tests.
fn tiny_exe() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("tiny", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

fn module_table(count: usize) -> Vec<ModuleRecord> {
    (0..count)
        .map(|index| ModuleRecord {
            id: u16::try_from(index).expect("count fits u16 id space"),
            base: 0x1000 * index as u64,
            end: 0x1000 * index as u64 + 0x800,
            name: format!("mod{index}"),
        })
        .collect()
}

/// Offsets clustered on the `u32` boundary, with some arbitrary values.
fn arb_offset() -> impl Strategy<Value = u32> {
    (any::<u8>(), any::<u32>()).prop_map(|(selector, raw)| match selector % 5 {
        0 => u32::MAX,
        1 => u32::MAX - 1,
        2 => 0,
        3 => 1,
        _ => raw,
    })
}

/// Module ids clustered on the `u16` boundary.
fn arb_module_id() -> impl Strategy<Value = u16> {
    (any::<u8>(), any::<u16>()).prop_map(|(selector, raw)| match selector % 4 {
        0 => u16::MAX,
        1 => u16::MAX - 1,
        2 => 0,
        _ => raw,
    })
}

fn arb_block() -> impl Strategy<Value = BlockRecord> {
    (arb_module_id(), arb_offset(), 1..=4096u32).prop_map(|(module, offset, size)| BlockRecord {
        module,
        offset,
        size,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any log whose offsets and ids sit at or around the drcov field
    /// boundaries must serialize and parse back to exactly itself.
    #[test]
    fn drcov_text_round_trips_at_field_boundaries(
        blocks in proptest::collection::btree_set(arb_block(), 0..24),
    ) {
        let log = TraceLog {
            // ids up to u16::MAX must resolve, so carry a full-width table
            // only when a block actually references the top of the space.
            modules: module_table(
                blocks
                    .iter()
                    .map(|b| usize::from(b.module) + 1)
                    .max()
                    .unwrap_or(1),
            ),
            blocks,
        };
        let text = log.to_drcov_text();
        let parsed = TraceLog::from_drcov_text(&text).unwrap();
        prop_assert_eq!(parsed, log);
    }

    /// Merging remapped blocks never changes offsets, only module ids —
    /// boundary offsets survive the union untouched.
    #[test]
    fn merge_preserves_boundary_offsets(
        offsets in proptest::collection::btree_set(arb_offset(), 1..12),
    ) {
        let mut target = TraceLog {
            modules: module_table(3),
            blocks: BTreeSet::new(),
        };
        let mut other = TraceLog::default();
        other.modules.push(ModuleRecord {
            id: 0,
            base: 0x5000,
            end: 0x5800,
            name: "extra".into(),
        });
        for offset in &offsets {
            other.blocks.insert(BlockRecord { module: 0, offset: *offset, size: 4 });
        }
        target.merge(&other).unwrap();
        let merged_offsets: BTreeSet<u32> = target
            .blocks
            .iter()
            .filter(|b| usize::from(b.module) == 3)
            .map(|b| b.offset)
            .collect();
        prop_assert_eq!(merged_offsets, offsets);
    }
}

#[test]
fn max_u32_offset_round_trips_exactly() {
    let mut log = TraceLog {
        modules: module_table(1),
        blocks: BTreeSet::new(),
    };
    log.blocks.insert(BlockRecord {
        module: 0,
        offset: u32::MAX,
        size: 1,
    });
    let parsed = TraceLog::from_drcov_text(&log.to_drcov_text()).unwrap();
    assert_eq!(parsed, log);
    assert_eq!(parsed.blocks.iter().next().unwrap().offset, u32::MAX);
}

/// Regression: before the fix, `0x1_0000_0000` parsed `as u32` into
/// offset 0 — aliasing the block at the module's entry point.
#[test]
fn parse_rejects_offset_past_u32() {
    let mut log = TraceLog {
        modules: module_table(1),
        blocks: BTreeSet::new(),
    };
    log.blocks.insert(BlockRecord {
        module: 0,
        offset: 0,
        size: 4,
    });
    let mut text = log.to_drcov_text();
    text.push_str("module[  0]: 0x100000000,   4\n");
    match TraceLog::from_drcov_text(&text) {
        Err(TraceError::OffsetOverflow { module, offset }) => {
            assert_eq!(module, "mod0");
            assert_eq!(offset, 0x1_0000_0000);
        }
        other => panic!("expected OffsetOverflow, got {other:?}"),
    }
}

#[test]
fn parse_reports_unknown_module_by_id_on_overflow() {
    let text = "DRCOV VERSION: 2\n\
                Module Table: version 2, count 0\n\
                Columns: id, base, end, path\n\
                BB Table: 1 bbs\n\
                module[  7]: 0x100000000,   4\n";
    match TraceLog::from_drcov_text(text) {
        Err(TraceError::OffsetOverflow { module, .. }) => assert_eq!(module, "id 7"),
        other => panic!("expected OffsetOverflow, got {other:?}"),
    }
}

/// The module count in the header is untrusted: the parser used to size
/// its table with it before reading a line, so `count usize::MAX`
/// panicked with "capacity overflow". Both it and a count past the
/// lines present are a typed error.
#[test]
fn parse_rejects_a_module_count_past_the_lines_present() {
    for count in [u64::MAX, 3] {
        let text = format!(
            "DRCOV VERSION: 2\n\
             Module Table: version 2, count {count}\n\
             Columns: id, base, end, path\n\
             0, 0x0000000000400000, 0x0000000000401000, mod0\n\
             BB Table: 0 bbs\n"
        );
        match TraceLog::from_drcov_text(&text) {
            Err(TraceError::Malformed(_)) => {}
            other => panic!("count {count}: expected Malformed, got {other:?}"),
        }
    }
}

/// A module table of exactly 65 536 entries uses the full `u16` id space
/// and still merges; one more module is a typed error that leaves the
/// target untouched.
#[test]
fn merge_at_and_past_the_u16_module_limit() {
    let full_count = usize::from(u16::MAX) + 1;
    let mut target = TraceLog {
        modules: module_table(full_count - 1),
        blocks: BTreeSet::new(),
    };

    let mut last = TraceLog::default();
    last.modules.push(ModuleRecord {
        id: 0,
        base: 0xF000_0000,
        end: 0xF000_0800,
        name: "final".into(),
    });
    last.blocks.insert(BlockRecord {
        module: 0,
        offset: u32::MAX,
        size: 8,
    });
    target.merge(&last).unwrap();
    assert_eq!(target.modules.len(), full_count);
    assert_eq!(target.module("final").unwrap().id, u16::MAX);
    assert!(target.blocks.contains(&BlockRecord {
        module: u16::MAX,
        offset: u32::MAX,
        size: 8,
    }));

    // Regression: before the fix, the 65 537th module's id wrapped to 0
    // and its blocks were silently credited to module 0.
    let before = target.clone();
    let mut overflow = TraceLog::default();
    overflow.modules.push(ModuleRecord {
        id: 0,
        base: 0xF100_0000,
        end: 0xF100_0800,
        name: "one_too_many".into(),
    });
    overflow.blocks.insert(BlockRecord {
        module: 0,
        offset: 0x10,
        size: 4,
    });
    match target.merge(&overflow) {
        Err(TraceError::ModuleLimit { count }) => assert_eq!(count, full_count + 1),
        other => panic!("expected ModuleLimit, got {other:?}"),
    }
    assert_eq!(target, before, "failed merge must not mutate the target");
}

#[test]
fn merge_of_known_modules_is_exempt_from_the_limit() {
    let full_count = usize::from(u16::MAX) + 1;
    let mut target = TraceLog {
        modules: module_table(full_count),
        blocks: BTreeSet::new(),
    };
    // Known names register nothing new, so a full table merges fine.
    let mut again = TraceLog::default();
    again.modules.push(ModuleRecord {
        id: 0,
        ..target.modules[full_count - 1].clone()
    });
    again.blocks.insert(BlockRecord {
        module: 0,
        offset: 0x20,
        size: 4,
    });
    target.merge(&again).unwrap();
    assert_eq!(target.modules.len(), full_count);
    assert!(target.blocks.contains(&BlockRecord {
        module: u16::MAX,
        offset: 0x20,
        size: 4,
    }));
}

/// Regression for the tracer half: a loaded module carrying a block whose
/// module-relative address exceeds `u32` must be rejected at `track()`
/// time — before the fix it registered fine and the offset wrapped when
/// the block executed.
#[test]
fn track_rejects_module_with_block_past_4gib() {
    let exe = tiny_exe();
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();

    let proc = kernel.process_mut(pid).unwrap();
    let mut huge = (*proc.modules[0].image).clone();
    huge.name = "huge".into();
    huge.blocks
        .push(BasicBlock::new(u64::from(u32::MAX) + 1, 4));
    proc.modules.push(LoadedModule {
        image: Arc::new(huge),
        base: 0x7000_0000,
    });

    match tracer.track(&kernel, pid) {
        Err(TraceError::OffsetOverflow { module, offset }) => {
            assert_eq!(module, "huge");
            assert_eq!(offset, u64::from(u32::MAX) + 1);
        }
        other => panic!("expected OffsetOverflow, got {other:?}"),
    }
    // All-or-nothing: the valid module alongside it was not registered
    // either, and nothing is tracked for the pid.
    let log = tracer.snapshot();
    assert!(
        log.modules.is_empty(),
        "failed track must not register modules"
    );
    assert!(log.blocks.is_empty());
}

#[test]
fn track_boundary_block_at_exactly_u32_max_is_accepted() {
    let exe = tiny_exe();
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();

    let proc = kernel.process_mut(pid).unwrap();
    let mut wide = (*proc.modules[0].image).clone();
    wide.name = "wide".into();
    wide.blocks.push(BasicBlock::new(u64::from(u32::MAX), 1));
    proc.modules.push(LoadedModule {
        image: Arc::new(wide),
        base: 0x7000_0000,
    });

    tracer.track(&kernel, pid).unwrap();
    assert!(tracer.snapshot().module("wide").is_some());
}

#[test]
fn track_rejects_module_table_past_u16_limit() {
    let exe = tiny_exe();
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();

    let proc = kernel.process_mut(pid).unwrap();
    let base_image = (*proc.modules[0].image).clone();
    // 1 real module + 65 536 synthetic ones = 65 537 names to register.
    for index in 0..=usize::from(u16::MAX) {
        let mut lib = base_image.clone();
        lib.name = format!("lib{index}");
        proc.modules.push(LoadedModule {
            image: Arc::new(lib),
            base: 0x7000_0000 + 0x1000 * index as u64,
        });
    }

    match tracer.track(&kernel, pid) {
        Err(TraceError::ModuleLimit { count }) => {
            assert_eq!(count, usize::from(u16::MAX) + 2);
        }
        other => panic!("expected ModuleLimit, got {other:?}"),
    }
    assert!(tracer.snapshot().modules.is_empty());
}

#[test]
fn track_missing_pid_is_a_vm_error() {
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    match tracer.track(&kernel, Pid(999)) {
        Err(TraceError::Vm(_)) => {}
        other => panic!("expected Vm error, got {other:?}"),
    }
}
