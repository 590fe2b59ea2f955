//! The instruction interpreter: fetch, decode, execute, fault.

use crate::bcache::{CachedBlock, MAX_BLOCK_INSNS, MAX_SUPERBLOCK_INSNS};
use crate::cpu::{CpuState, Flags};
use crate::hook::Hook;
use crate::mem::AddressSpace;
use crate::process::{Pid, Process};
use crate::signal::{
    Signal, SIGFRAME_LEN, SIGFRAME_SIZE, SIG_FRAME_FAULT_ADDR, SIG_FRAME_FLAGS, SIG_FRAME_PC,
    SIG_FRAME_REGS, SIG_FRAME_SIGNO,
};
use dynacut_isa::{decode, Cond, Insn, IsaError, Reg, Width, MAX_INSN_LEN};
use dynacut_obj::PAGE_SIZE;

/// Outcome of the pure-CPU part of execution, by the class of check the
/// cached block loop owes the instruction once it retired.
pub(crate) enum Exec {
    /// Retired without writing memory or leaving the decoded chain: it
    /// needs no check.
    Done,
    /// A store retired (`St`, `Push`, `Call`, `Callr`, the complete
    /// list): it may have changed a code page, so a running block
    /// revalidates if the space's code stamp moved.
    Wrote,
    /// A `Jcc` retired, the one instruction whose successor can leave a
    /// superblock's decoded chain: the new pc is checked against it.
    Branched,
    /// The instruction faulted with this signal and address and did not
    /// retire.
    Fault(Signal, u64),
    /// A syscall instruction retired; the kernel dispatches it.
    Syscall,
}

/// Fetches and decodes the instruction at `pc`.
///
/// Returns the instruction and its length, or the fault signal to raise.
/// Decodes out of a fixed `[u8; MAX_INSN_LEN]` stack buffer (no per-fetch
/// allocation) and goes through the address space's soft TLB
/// ([`AddressSpace::fetch_exec`]), which is why it takes the space by
/// `&mut`.
pub(crate) fn fetch_insn(mem: &mut AddressSpace, pc: u64) -> Result<(Insn, usize), (Signal, u64)> {
    let mut buf = [0u8; MAX_INSN_LEN];
    if mem.fetch_exec(pc, &mut buf[..1]).is_err() {
        return Err((Signal::Sigsegv, pc));
    }
    match decode(&buf[..1], 0) {
        Ok((insn, len)) => Ok((insn, len)),
        Err(IsaError::TruncatedInsn { needed, .. }) if needed <= MAX_INSN_LEN => {
            if mem.fetch_exec(pc, &mut buf[..needed]).is_err() {
                return Err((Signal::Sigsegv, pc));
            }
            match decode(&buf[..needed], 0) {
                Ok((insn, len)) => Ok((insn, len)),
                Err(_) => Err((Signal::Sigill, pc)),
            }
        }
        Err(_) => Err((Signal::Sigill, pc)),
    }
}

/// Registers (and generation-snapshots) every code page the instruction
/// at `pc` spans, deduplicating against `pages`.
fn note_insn_pages(mem: &mut AddressSpace, pages: &mut Vec<(u64, u64)>, pc: u64, len: usize) {
    let mut base = pc & !(PAGE_SIZE - 1);
    let last = (pc + len as u64 - 1) & !(PAGE_SIZE - 1);
    while base <= last {
        if !pages.iter().any(|&(b, _)| b == base) {
            let gen = mem.note_code_page(base);
            pages.push((base, gen));
        }
        base += PAGE_SIZE;
    }
}

/// Decodes the instruction run entered at `entry`.
///
/// A cold entry (`hot == false`) decodes the straight-line basic block:
/// instructions are appended until (and including) the first terminator
/// or syscall, or until [`MAX_BLOCK_INSNS`].
///
/// A hot entry decodes a **superblock**: the decoder follows the
/// statically *predicted* control flow across direct branches instead
/// of stopping at the first terminator, up to
/// [`MAX_SUPERBLOCK_INSNS`]:
///
/// - `Jmp` and `Call` chain to their (direct) target unconditionally;
/// - a *backward* `Jcc` is predicted taken — it is almost always a loop
///   back-edge, and following it unrolls the loop body into the block;
/// - a *forward* `Jcc` is predicted not-taken and falls through;
/// - indirect branches (`Jmpr`/`Callr`/`Ret`), `Syscall`, `Halt`, and
///   `Trap` end the chain — their successors are data-dependent or
///   leave the pure-CPU path.
///
/// Revisiting a pc (including the entry) is allowed: that *is* the loop
/// unrolling, bounded by the cap. The prediction is pure speculation —
/// the recorded [`CachedBlock::pcs`] let the dispatcher side-exit the
/// moment the guest's actual pc diverges — so a wrong prediction costs
/// a redispatch, never correctness.
///
/// Every page the run decodes from is registered with
/// [`AddressSpace::note_code_page`](crate::AddressSpace::note_code_page)
/// and its generation snapshotted, so any later mutation of those pages
/// — a planted trap byte anywhere in a chain included — invalidates the
/// whole block.
///
/// A decode failure on the *first* instruction is the caller's fault to
/// deliver. A failure later simply ends the block early: execution will
/// reach that pc, miss the cache, and raise the fault with the exact
/// same `(signal, addr)` the uncached interpreter would.
pub(crate) fn decode_block(
    mem: &mut AddressSpace,
    entry: u64,
    hot: bool,
) -> Result<CachedBlock, (Signal, u64)> {
    let cap = if hot {
        MAX_SUPERBLOCK_INSNS
    } else {
        MAX_BLOCK_INSNS
    };
    let mut insns: Vec<(Insn, u8)> = Vec::new();
    let mut pcs: Vec<u64> = Vec::new();
    let mut pages: Vec<(u64, u64)> = Vec::new();
    let mut pc = entry;
    loop {
        let (insn, len) = match fetch_insn(mem, pc) {
            Ok(pair) => pair,
            Err(fault) if insns.is_empty() => return Err(fault),
            Err(_) => break,
        };
        note_insn_pages(mem, &mut pages, pc, len);
        let len_byte = u8::try_from(len).expect("an instruction is at most MAX_INSN_LEN bytes");
        insns.push((insn, len_byte));
        pcs.push(pc);
        let next = pc + len as u64;
        if insns.len() >= cap {
            break;
        }
        pc = match insn {
            Insn::Jmp(disp) | Insn::Call(disp) if hot => next.wrapping_add(disp as i64 as u64),
            Insn::Jcc(_, disp) if hot && disp < 0 => next.wrapping_add(disp as i64 as u64),
            Insn::Jcc(..) if hot => next,
            Insn::Syscall => break,
            _ if insn.is_terminator() => break,
            _ => next,
        };
    }
    Ok(CachedBlock {
        insns: insns.into_boxed_slice(),
        pcs: pcs.into_boxed_slice(),
        pages,
        is_superblock: hot,
    })
}

/// Executes one decoded instruction against a CPU and its address space.
///
/// On success the pc has been advanced (sequentially or to a branch
/// target) and the result names the instruction's class ([`Exec`]).
/// Syscall dispatch and faults are returned to the caller. Loads and
/// stores go through [`AddressSpace::load`] and [`AddressSpace::store`],
/// one fixed-width access each. Always inlined, into [`run_block`] and
/// the uncached path alike, so no instruction pays a call.
#[inline(always)]
pub(crate) fn exec_insn(
    cpu: &mut CpuState,
    mem: &mut AddressSpace,
    insn: &Insn,
    len: usize,
) -> Exec {
    let pc = cpu.pc;
    let next = pc + len as u64;
    macro_rules! binop {
        ($d:expr, $s:expr, $op:expr) => {{
            let a = cpu.reg(*$d);
            let b = cpu.reg(*$s);
            cpu.set_reg(*$d, $op(a, b));
            cpu.pc = next;
        }};
    }
    match insn {
        Insn::Nop => cpu.pc = next,
        Insn::Movi(d, imm) => {
            cpu.set_reg(*d, *imm);
            cpu.pc = next;
        }
        Insn::Mov(d, s) => {
            let v = cpu.reg(*s);
            cpu.set_reg(*d, v);
            cpu.pc = next;
        }
        Insn::Add(d, s) => binop!(d, s, |a: u64, b: u64| a.wrapping_add(b)),
        Insn::Sub(d, s) => binop!(d, s, |a: u64, b: u64| a.wrapping_sub(b)),
        Insn::Mul(d, s) => binop!(d, s, |a: u64, b: u64| a.wrapping_mul(b)),
        Insn::Divu(d, s) => {
            let b = cpu.reg(*s);
            if b == 0 {
                return Exec::Fault(Signal::Sigfpe, pc);
            }
            let a = cpu.reg(*d);
            cpu.set_reg(*d, a / b);
            cpu.pc = next;
        }
        Insn::Modu(d, s) => {
            let b = cpu.reg(*s);
            if b == 0 {
                return Exec::Fault(Signal::Sigfpe, pc);
            }
            let a = cpu.reg(*d);
            cpu.set_reg(*d, a % b);
            cpu.pc = next;
        }
        Insn::And(d, s) => binop!(d, s, |a, b| a & b),
        Insn::Or(d, s) => binop!(d, s, |a, b| a | b),
        Insn::Xor(d, s) => binop!(d, s, |a, b| a ^ b),
        Insn::Shl(d, s) => binop!(d, s, |a: u64, b: u64| a << (b & 63)),
        Insn::Shr(d, s) => binop!(d, s, |a: u64, b: u64| a >> (b & 63)),
        Insn::Addi(d, imm) => {
            let a = cpu.reg(*d);
            cpu.set_reg(*d, a.wrapping_add_signed(*imm as i64));
            cpu.pc = next;
        }
        Insn::Muli(d, imm) => {
            let a = cpu.reg(*d);
            cpu.set_reg(*d, a.wrapping_mul(*imm as i64 as u64));
            cpu.pc = next;
        }
        Insn::Cmp(a, b) => {
            cpu.flags = Flags::compare(cpu.reg(*a), cpu.reg(*b));
            cpu.pc = next;
        }
        Insn::Cmpi(a, imm) => {
            cpu.flags = Flags::compare(cpu.reg(*a), *imm as i64 as u64);
            cpu.pc = next;
        }
        Insn::Lea(d, disp) => {
            cpu.set_reg(*d, next.wrapping_add_signed(*disp as i64));
            cpu.pc = next;
        }
        Insn::Ld(width, d, base, disp) => {
            let addr = cpu.reg(*base).wrapping_add_signed(*disp as i64);
            let Ok(value) = mem.load(addr, *width) else {
                return Exec::Fault(Signal::Sigsegv, addr);
            };
            cpu.set_reg(*d, value);
            cpu.pc = next;
        }
        Insn::St(width, base, disp, s) => {
            let addr = cpu.reg(*base).wrapping_add_signed(*disp as i64);
            if mem.store(addr, *width, cpu.reg(*s)).is_err() {
                return Exec::Fault(Signal::Sigsegv, addr);
            }
            cpu.pc = next;
            return Exec::Wrote;
        }
        Insn::Jmp(disp) => cpu.pc = next.wrapping_add_signed(*disp as i64),
        Insn::Jcc(cond, disp) => {
            let flags = cpu.flags;
            let taken = match cond {
                Cond::Eq => flags.eq,
                Cond::Ne => !flags.eq,
                Cond::Lt => flags.lt_signed,
                Cond::Le => flags.lt_signed || flags.eq,
                Cond::Gt => !flags.lt_signed && !flags.eq,
                Cond::Ge => !flags.lt_signed,
                Cond::B => flags.lt_unsigned,
                Cond::Be => flags.lt_unsigned || flags.eq,
                Cond::A => !flags.lt_unsigned && !flags.eq,
                Cond::Ae => !flags.lt_unsigned,
            };
            cpu.pc = if taken {
                next.wrapping_add_signed(*disp as i64)
            } else {
                next
            };
            return Exec::Branched;
        }
        Insn::Jmpr(r) => cpu.pc = cpu.reg(*r),
        Insn::Call(disp) => {
            let sp = cpu.sp().wrapping_sub(8);
            if mem.store(sp, Width::B8, next).is_err() {
                return Exec::Fault(Signal::Sigsegv, sp);
            }
            cpu.set_sp(sp);
            cpu.pc = next.wrapping_add_signed(*disp as i64);
            return Exec::Wrote;
        }
        Insn::Callr(r) => {
            let target = cpu.reg(*r);
            let sp = cpu.sp().wrapping_sub(8);
            if mem.store(sp, Width::B8, next).is_err() {
                return Exec::Fault(Signal::Sigsegv, sp);
            }
            cpu.set_sp(sp);
            cpu.pc = target;
            return Exec::Wrote;
        }
        Insn::Ret => {
            let sp = cpu.sp();
            let Ok(target) = mem.load(sp, Width::B8) else {
                return Exec::Fault(Signal::Sigsegv, sp);
            };
            cpu.set_sp(sp + 8);
            cpu.pc = target;
        }
        Insn::Push(r) => {
            let sp = cpu.sp().wrapping_sub(8);
            if mem.store(sp, Width::B8, cpu.reg(*r)).is_err() {
                return Exec::Fault(Signal::Sigsegv, sp);
            }
            cpu.set_sp(sp);
            cpu.pc = next;
            return Exec::Wrote;
        }
        Insn::Pop(r) => {
            let sp = cpu.sp();
            let Ok(value) = mem.load(sp, Width::B8) else {
                return Exec::Fault(Signal::Sigsegv, sp);
            };
            cpu.set_reg(*r, value);
            cpu.set_sp(sp + 8);
            cpu.pc = next;
        }
        Insn::Syscall => {
            cpu.pc = next;
            return Exec::Syscall;
        }
        Insn::Halt => return Exec::Fault(Signal::Sigill, pc),
        Insn::Trap => return Exec::Fault(Signal::Sigtrap, pc),
    }
    Exec::Done
}

/// How a block ended.
pub(crate) enum BlockExit {
    /// Re-enter the dispatcher at the current pc: the block ran to its
    /// end or to the slice's, or a superblock side-exited.
    Redispatch,
    /// A code page under the block changed: evict it, then re-enter.
    Invalidated,
    /// An instruction faulted with this signal and address.
    Fault(Signal, u64),
    /// A syscall instruction retired at this pc; dispatch it.
    Syscall(u64),
}

/// Runs `run`, a prefix of `block`'s instructions, on `cpu` and `mem`,
/// and returns how many ran to completion and why the block ended. Each
/// instruction is executed inline and checked only for what its class
/// can change. Kept out of line, one call per block: inlined into the
/// dispatcher, the loop shared its registers and stack frame, and
/// `serve` answered ~7 % fewer requests per second.
#[inline(never)]
pub(crate) fn run_block(
    cpu: &mut CpuState,
    mem: &mut AddressSpace,
    block: &CachedBlock,
    run: &[(Insn, u8)],
    pid: Pid,
    mut hook: Option<&mut (dyn Hook + '_)>,
) -> (usize, BlockExit) {
    let mut validated_at = mem.code_stamp();
    for (i, (insn, len)) in run.iter().enumerate() {
        let pc = cpu.pc;
        let class = exec_insn(cpu, mem, insn, usize::from(*len));
        if let Exec::Fault(signal, fault_addr) = class {
            return (i, BlockExit::Fault(signal, fault_addr));
        }
        if let Some(hook) = hook.as_deref_mut() {
            hook.on_insn(pid, pc);
        }
        match class {
            // Self-modifying code: a store that changed a code page may
            // have overwritten this very block (even mid-superblock).
            // Revalidate before running another cached instruction.
            Exec::Wrote if mem.code_stamp() != validated_at => {
                if !block.pages_valid(mem) {
                    return (i + 1, BlockExit::Invalidated);
                }
                validated_at = mem.code_stamp();
            }
            // A pc that diverges from the decoded chain after a
            // conditional branch is a superblock side-exit (mispredicted
            // branch): re-enter the dispatcher at the real pc.
            Exec::Branched if block.pcs.get(i + 1).is_some_and(|&next| next != cpu.pc) => {
                return (i + 1, BlockExit::Redispatch);
            }
            Exec::Syscall => return (i + 1, BlockExit::Syscall(pc)),
            _ => {}
        }
    }
    (run.len(), BlockExit::Redispatch)
}

/// Delivers `signal` to the process: either sets up a handler frame on the
/// guest stack or kills the process (default action). Returns whether a
/// handler frame was successfully set up (`false` means the process died).
///
/// `fault_addr` is the faulting instruction or data address, stored in the
/// signal frame where the injected fault handler reads it (paper §3.2.2:
/// "obtain the execution context … update the instruction pointer by
/// adding an offset to the exception address").
pub(crate) fn deliver_signal(
    proc: &mut Process,
    signal: Signal,
    fault_addr: u64,
    hook: Option<&mut (dyn Hook + '_)>,
) -> bool {
    let action = proc.sigactions[signal.index()];
    let handled = action.is_handled() && signal.catchable() && proc.signal_depth < 16;
    if let Some(hook) = hook {
        hook.on_signal(proc.pid, signal, handled);
    }
    if !handled {
        proc.kill(signal);
        return false;
    }
    // Build the signal frame below the current stack pointer.
    let frame = proc.cpu.sp().wrapping_sub(SIGFRAME_SIZE);
    let mut bytes = Vec::with_capacity(SIGFRAME_LEN);
    bytes.extend_from_slice(&proc.cpu.pc.to_le_bytes()); // SIG_FRAME_PC
    bytes.extend_from_slice(&proc.cpu.flags.to_bits().to_le_bytes()); // SIG_FRAME_FLAGS
    bytes.extend_from_slice(&fault_addr.to_le_bytes()); // SIG_FRAME_FAULT_ADDR
    bytes.extend_from_slice(&signal.number().to_le_bytes()); // SIG_FRAME_SIGNO
    for reg in proc.cpu.regs {
        bytes.extend_from_slice(&reg.to_le_bytes()); // SIG_FRAME_REGS
    }
    debug_assert_eq!(bytes.len(), SIGFRAME_LEN);
    if proc.mem.write_checked(frame, &bytes).is_err() {
        // Double fault: cannot even build the frame.
        proc.kill(Signal::Sigsegv);
        return false;
    }
    // Push the restorer as the handler's return address.
    let sp = frame.wrapping_sub(8);
    if proc
        .mem
        .write_checked(sp, &action.restorer.to_le_bytes())
        .is_err()
    {
        proc.kill(Signal::Sigsegv);
        return false;
    }
    proc.cpu.set_sp(sp);
    proc.cpu.set_reg(Reg::R1, signal.number());
    proc.cpu.set_reg(Reg::R2, frame);
    proc.cpu.pc = action.handler;
    proc.signal_depth += 1;
    true
}

/// Restores the context saved in the signal frame at `frame` (the
/// `sigreturn` syscall).
pub(crate) fn sigreturn(proc: &mut Process, frame: u64) -> Result<(), ()> {
    let mut bytes = [0u8; SIGFRAME_LEN];
    if proc.mem.read_checked(frame, &mut bytes).is_err() {
        return Err(());
    }
    let word = |off: u64| -> u64 {
        let off = usize::try_from(off).expect("a frame offset is below SIGFRAME_LEN");
        u64::from_le_bytes(bytes[off..off + 8].try_into().expect("in range"))
    };
    let _ = word(SIG_FRAME_FAULT_ADDR);
    let _ = word(SIG_FRAME_SIGNO);
    for i in 0..16 {
        proc.cpu.regs[i] = word(SIG_FRAME_REGS + 8 * i as u64);
    }
    proc.cpu.flags = Flags::from_bits(word(SIG_FRAME_FLAGS));
    proc.cpu.pc = word(SIG_FRAME_PC);
    proc.signal_depth = proc.signal_depth.saturating_sub(1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Pid;
    use crate::signal::SigAction;
    use dynacut_obj::Perms;

    fn proc_with_stack() -> Process {
        let mut proc = Process::new(Pid(1), "t");
        proc.mem.map(0x1000, 0x2000, Perms::RW, "[stack]").unwrap();
        proc.cpu.set_sp(0x3000);
        proc
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut proc = proc_with_stack();
        proc.cpu.set_reg(Reg::R1, 10);
        proc.cpu.set_reg(Reg::R2, 3);
        assert!(matches!(
            exec_insn(
                &mut proc.cpu,
                &mut proc.mem,
                &Insn::Sub(Reg::R1, Reg::R2),
                3
            ),
            Exec::Done
        ));
        assert_eq!(proc.cpu.reg(Reg::R1), 7);
        assert!(matches!(
            exec_insn(&mut proc.cpu, &mut proc.mem, &Insn::Cmpi(Reg::R1, 7), 6),
            Exec::Done
        ));
        assert!(proc.cpu.flags.eq);
    }

    #[test]
    fn division_by_zero_faults() {
        let mut proc = proc_with_stack();
        proc.cpu.set_reg(Reg::R1, 10);
        proc.cpu.set_reg(Reg::R2, 0);
        assert!(matches!(
            exec_insn(
                &mut proc.cpu,
                &mut proc.mem,
                &Insn::Divu(Reg::R1, Reg::R2),
                3
            ),
            Exec::Fault(Signal::Sigfpe, _)
        ));
    }

    #[test]
    fn push_pop_round_trip() {
        let mut proc = proc_with_stack();
        proc.cpu.set_reg(Reg::R3, 0xABCD);
        exec_insn(&mut proc.cpu, &mut proc.mem, &Insn::Push(Reg::R3), 2);
        assert_eq!(proc.cpu.sp(), 0x3000 - 8);
        exec_insn(&mut proc.cpu, &mut proc.mem, &Insn::Pop(Reg::R4), 2);
        assert_eq!(proc.cpu.reg(Reg::R4), 0xABCD);
        assert_eq!(proc.cpu.sp(), 0x3000);
    }

    #[test]
    fn call_and_ret() {
        let mut proc = proc_with_stack();
        proc.cpu.pc = 100;
        exec_insn(&mut proc.cpu, &mut proc.mem, &Insn::Call(50), 5);
        assert_eq!(proc.cpu.pc, 105 + 50);
        exec_insn(&mut proc.cpu, &mut proc.mem, &Insn::Ret, 1);
        assert_eq!(proc.cpu.pc, 105);
        assert_eq!(proc.cpu.sp(), 0x3000);
    }

    #[test]
    fn trap_faults_with_sigtrap_at_pc() {
        let mut proc = proc_with_stack();
        proc.cpu.pc = 0x42;
        assert!(matches!(
            exec_insn(&mut proc.cpu, &mut proc.mem, &Insn::Trap, 1),
            Exec::Fault(Signal::Sigtrap, 0x42)
        ));
        // pc unchanged so the frame records the trap site.
        assert_eq!(proc.cpu.pc, 0x42);
    }

    #[test]
    fn store_to_unmapped_faults_with_address() {
        let mut proc = proc_with_stack();
        proc.cpu.set_reg(Reg::R1, 0xDEAD_0000);
        assert!(matches!(
            exec_insn(
                &mut proc.cpu,
                &mut proc.mem,
                &Insn::St(dynacut_isa::Width::B8, Reg::R1, 0, Reg::R2),
                7
            ),
            Exec::Fault(Signal::Sigsegv, 0xDEAD_0000)
        ));
    }

    #[test]
    fn unhandled_signal_kills() {
        let mut proc = proc_with_stack();
        deliver_signal(&mut proc, Signal::Sigtrap, 0x42, None);
        assert!(proc.is_exited());
        assert_eq!(proc.fatal_signal, Some(Signal::Sigtrap));
    }

    #[test]
    fn handled_signal_builds_frame_and_sigreturn_restores() {
        let mut proc = proc_with_stack();
        proc.sigactions[Signal::Sigtrap.index()] = SigAction {
            handler: 0x7000,
            restorer: 0x7100,
            mask: 0,
        };
        proc.cpu.pc = 0x1234;
        proc.cpu.set_reg(Reg::R5, 99);
        let before = proc.cpu.clone();

        deliver_signal(&mut proc, Signal::Sigtrap, 0x1234, None);
        assert!(!proc.is_exited());
        assert_eq!(proc.cpu.pc, 0x7000);
        assert_eq!(proc.cpu.reg(Reg::R1), Signal::Sigtrap.number());
        let frame = proc.cpu.reg(Reg::R2);
        assert_eq!(frame, before.sp() - SIGFRAME_SIZE);
        assert_eq!(proc.signal_depth, 1);
        // Return address below the frame is the restorer.
        let mut ra = [0u8; 8];
        proc.mem.read_checked(proc.cpu.sp(), &mut ra).unwrap();
        assert_eq!(u64::from_le_bytes(ra), 0x7100);

        // Handler edits the saved pc (+4), then sigreturn.
        let mut saved_pc = [0u8; 8];
        proc.mem
            .read_checked(frame + SIG_FRAME_PC, &mut saved_pc)
            .unwrap();
        assert_eq!(u64::from_le_bytes(saved_pc), 0x1234);
        proc.mem
            .write_checked(frame + SIG_FRAME_PC, &0x1238u64.to_le_bytes())
            .unwrap();
        sigreturn(&mut proc, frame).unwrap();
        assert_eq!(proc.cpu.pc, 0x1238);
        assert_eq!(proc.cpu.reg(Reg::R5), 99);
        assert_eq!(proc.cpu.sp(), before.sp());
        assert_eq!(proc.signal_depth, 0);
    }

    #[test]
    fn frame_records_fault_addr_and_signo() {
        let mut proc = proc_with_stack();
        proc.sigactions[Signal::Sigtrap.index()] = SigAction {
            handler: 0x7000,
            restorer: 0x7100,
            mask: 0,
        };
        proc.cpu.pc = 0x4444;
        deliver_signal(&mut proc, Signal::Sigtrap, 0x4444, None);
        let frame = proc.cpu.reg(Reg::R2);
        let mut buf = [0u8; 8];
        proc.mem
            .read_checked(frame + SIG_FRAME_FAULT_ADDR, &mut buf)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0x4444);
        proc.mem
            .read_checked(frame + SIG_FRAME_SIGNO, &mut buf)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), Signal::Sigtrap.number());
    }

    #[test]
    fn signal_with_unwritable_stack_double_faults() {
        let mut proc = Process::new(Pid(1), "t");
        proc.cpu.set_sp(0x10); // no stack mapped
        proc.sigactions[Signal::Sigtrap.index()] = SigAction {
            handler: 0x7000,
            restorer: 0x7100,
            mask: 0,
        };
        deliver_signal(&mut proc, Signal::Sigtrap, 0, None);
        assert!(proc.is_exited());
        assert_eq!(proc.fatal_signal, Some(Signal::Sigsegv));
    }
}
