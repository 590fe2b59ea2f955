//! Dumps a small live guest to a serialized checkpoint file, suitable for
//! inspection with the `crit` CLI:
//!
//! ```text
//! cargo run -p dynacut-criu --example checkpoint_file -- /tmp/guest.ckpt
//! cargo run -p dynacut-criu --bin crit -- info /tmp/guest.ckpt
//! ```

use dynacut_criu::{dump_many, DumpOptions};
use dynacut_isa::{Assembler, Insn, Reg, Width};
use dynacut_obj::{ModuleBuilder, ObjectKind, PAGE_SIZE};
use dynacut_vm::{Kernel, LoadSpec, Sysno};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "guest.ckpt".to_owned());

    // A guest that touches its scratch page, announces readiness, and
    // spins — enough state for core/mm/pagemap/pages to be non-trivial.
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.lea_ext(Reg::R1, "scratch", 0);
    asm.push(Insn::Movi(Reg::R2, 0x5EED));
    asm.push(Insn::St(Width::B8, Reg::R1, 0, Reg::R2));
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, 1));
    asm.push(Insn::Syscall);
    asm.label("spin");
    asm.jmp("spin");

    let mut builder = ModuleBuilder::new("ckpt_guest", ObjectKind::Executable);
    builder.text(asm.finish().expect("assemble"));
    builder.bss("scratch", PAGE_SIZE);
    builder.entry("_start");
    let exe = builder.link(&[]).expect("link");

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).expect("spawn");
    kernel.run_until_event(1, 1_000_000).expect("guest up");
    kernel.freeze(pid).expect("freeze");
    let checkpoint = dump_many(&mut kernel, &[pid], &DumpOptions::default()).expect("dump");
    let bytes = checkpoint.to_bytes();
    std::fs::write(&path, &bytes).expect("write checkpoint");
    println!(
        "wrote {path}: {} bytes, {} process(es), {} page bytes",
        bytes.len(),
        checkpoint.procs.len(),
        checkpoint.pages_bytes()
    );
}
