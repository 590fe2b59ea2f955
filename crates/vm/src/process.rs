//! Process control blocks.

use crate::bcache::BlockCache;
use crate::cpu::CpuState;
use crate::fs::FdTable;
use crate::loader::LoadedModule;
use crate::mem::AddressSpace;
use crate::sched::SchedRecord;
use crate::signal::{SigAction, Signal};
use std::collections::VecDeque;
use std::fmt;

/// Width of the per-process syscall allow-bitmask: syscall numbers
/// `0..SYSCALL_FILTER_BITS` are representable; anything at or above is
/// unconditionally denied (and rejected by plan validation before a
/// rewrite ever builds a mask).
pub const SYSCALL_FILTER_BITS: u32 = 64;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// Why a process is not currently runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// Blocked reading fd (no data yet).
    ReadFd(u32),
    /// Blocked in `accept` on the listener fd.
    Accept(u32),
    /// Sleeping until the given kernel time (ns).
    Until(u64),
}

/// Scheduler-visible process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Eligible to run.
    Runnable,
    /// Blocked on I/O or a timer.
    Blocked(WaitReason),
    /// Frozen by the host (checkpointing); never scheduled.
    Frozen,
    /// Terminated; `exit` holds the status.
    Exited,
}

/// One DCVM process: CPU, memory, descriptors, signal state.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent pid, if forked.
    pub parent: Option<Pid>,
    /// Executable name (for diagnostics and trace module tables).
    pub name: String,
    /// Register file and program counter.
    pub cpu: CpuState,
    /// Virtual memory.
    pub mem: AddressSpace,
    /// Open file descriptors.
    pub fds: FdTable,
    /// Signal dispositions, indexed by signal number.
    pub sigactions: [SigAction; Signal::COUNT],
    /// Signals queued for delivery.
    pub pending_signals: VecDeque<Signal>,
    /// Scheduler state.
    pub state: ProcState,
    /// Exit code (valid once `state == Exited`).
    pub exit_code: Option<u64>,
    /// Fatal signal that killed the process, if any.
    pub fatal_signal: Option<Signal>,
    /// Bytes written to the console (fd 0).
    pub console: Vec<u8>,
    /// Instructions retired (also the process's CPU-time in ns).
    pub insns_retired: u64,
    /// Depth of nested signal-handler frames currently live.
    pub signal_depth: u32,
    /// Scheduler state at the moment of the last freeze, so a thaw can
    /// put the process back exactly where it was (a process blocked in
    /// `read` stays blocked instead of being forced runnable) — the
    /// rollback path of a failed customization depends on this.
    pub frozen_from: Option<ProcState>,
    /// Modules mapped into the process, in load order (libraries first,
    /// executable last).
    pub modules: Vec<LoadedModule>,
    /// Syscall allow-bitmask (bit *n* permits syscall number *n*); the
    /// seccomp-filter analogue of paper §5. All-ones permits everything.
    pub syscall_filter: u64,
    /// Decoded-block translation cache. Pure host-side acceleration
    /// state: never checkpointed, never fingerprinted, empty in a
    /// restored process (see DESIGN §11).
    pub block_cache: BlockCache,
    /// Host-side scheduling record: never checkpointed, never
    /// fingerprinted (see DESIGN §14).
    pub sched: SchedRecord,
}

impl Process {
    /// Creates an empty runnable process.
    pub fn new(pid: Pid, name: &str) -> Self {
        Process {
            pid,
            parent: None,
            name: name.to_owned(),
            cpu: CpuState::default(),
            mem: AddressSpace::new(),
            fds: FdTable::new(),
            sigactions: [SigAction::default(); Signal::COUNT],
            pending_signals: VecDeque::new(),
            state: ProcState::Runnable,
            exit_code: None,
            fatal_signal: None,
            console: Vec::new(),
            insns_retired: 0,
            signal_depth: 0,
            frozen_from: None,
            modules: Vec::new(),
            syscall_filter: u64::MAX,
            block_cache: BlockCache::default(),
            sched: SchedRecord::default(),
        }
    }

    /// Whether the filter permits the raw syscall number. Numbers at or
    /// above [`SYSCALL_FILTER_BITS`] are always denied.
    pub fn syscall_allowed(&self, nr: u64) -> bool {
        nr < u64::from(SYSCALL_FILTER_BITS) && self.syscall_filter & (1 << nr) != 0
    }

    /// Whether the scheduler may pick this process.
    pub fn is_runnable(&self) -> bool {
        self.state == ProcState::Runnable
    }

    /// Whether the process has terminated.
    pub fn is_exited(&self) -> bool {
        self.state == ProcState::Exited
    }

    /// Console output decoded as UTF-8 (lossy).
    pub fn console_text(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// Marks the process exited with `code`.
    pub fn exit(&mut self, code: u64) {
        self.state = ProcState::Exited;
        self.exit_code = Some(code);
    }

    /// Kills the process with a fatal signal.
    pub fn kill(&mut self, signal: Signal) {
        self.state = ProcState::Exited;
        self.fatal_signal = Some(signal);
        self.exit_code = Some(128 + signal.number());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_is_runnable() {
        let proc = Process::new(Pid(1), "init");
        assert!(proc.is_runnable());
        assert!(!proc.is_exited());
        assert_eq!(proc.exit_code, None);
    }

    #[test]
    fn exit_records_code() {
        let mut proc = Process::new(Pid(1), "x");
        proc.exit(3);
        assert!(proc.is_exited());
        assert_eq!(proc.exit_code, Some(3));
        assert_eq!(proc.fatal_signal, None);
    }

    #[test]
    fn kill_records_signal_and_synthetic_code() {
        let mut proc = Process::new(Pid(1), "x");
        proc.kill(Signal::Sigtrap);
        assert!(proc.is_exited());
        assert_eq!(proc.fatal_signal, Some(Signal::Sigtrap));
        assert_eq!(proc.exit_code, Some(128));
    }

    #[test]
    fn console_text_is_lossy_utf8() {
        let mut proc = Process::new(Pid(1), "x");
        proc.console.extend_from_slice(b"ok\xFF");
        assert!(proc.console_text().starts_with("ok"));
    }
}
