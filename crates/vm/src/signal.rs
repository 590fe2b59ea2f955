//! Signals, signal actions, and the guest signal frame.

use std::fmt;

/// Signals the DCVM kernel can deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Signal {
    /// Breakpoint trap — raised by executing the `0xCC` trap byte. This is
    /// the signal DynaCut's injected fault handler catches (paper §3.2.2).
    Sigtrap = 0,
    /// Invalid memory access (unmapped page or permission violation).
    Sigsegv = 1,
    /// Illegal instruction (undecodable opcode, `halt`).
    Sigill = 2,
    /// Arithmetic fault (division by zero).
    Sigfpe = 3,
    /// Uncatchable kill.
    Sigkill = 4,
    /// Polite termination request.
    Sigterm = 5,
    /// Bad system call — raised when the process's syscall filter blocks
    /// a call (the seccomp analogue, paper §5).
    Sigsys = 6,
}

impl Signal {
    /// Number of distinct signals.
    pub const COUNT: usize = 7;

    /// All signals in number order.
    pub const ALL: [Signal; Signal::COUNT] = [
        Signal::Sigtrap,
        Signal::Sigsegv,
        Signal::Sigill,
        Signal::Sigfpe,
        Signal::Sigkill,
        Signal::Sigterm,
        Signal::Sigsys,
    ];

    /// The signal's number (index into the sigaction table).
    pub fn number(self) -> u64 {
        self as u64
    }

    /// The signal's index into the sigaction table.
    pub fn index(self) -> usize {
        usize::from(self as u8)
    }

    /// Converts a signal number back to a [`Signal`].
    pub fn from_number(number: u64) -> Option<Signal> {
        let index = usize::try_from(number).ok()?;
        Signal::ALL.get(index).copied()
    }

    /// Whether a handler may be registered (everything but `SIGKILL`).
    pub fn catchable(self) -> bool {
        self != Signal::Sigkill
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Signal::Sigtrap => "SIGTRAP",
            Signal::Sigsegv => "SIGSEGV",
            Signal::Sigill => "SIGILL",
            Signal::Sigfpe => "SIGFPE",
            Signal::Sigkill => "SIGKILL",
            Signal::Sigterm => "SIGTERM",
            Signal::Sigsys => "SIGSYS",
        };
        f.write_str(name)
    }
}

/// A registered signal disposition, as stored in the process (and in the
/// CRIU core image's sigaction field, which the process rewriter edits to
/// install the injected handler — paper §3.3 "The core image file").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SigAction {
    /// Guest address of the handler; `0` means default action.
    pub handler: u64,
    /// Guest address of the restorer stub that issues `rt_sigreturn`.
    pub restorer: u64,
    /// Bitmask of signals blocked while the handler runs.
    pub mask: u64,
}

impl SigAction {
    /// Whether a user handler is installed.
    pub fn is_handled(&self) -> bool {
        self.handler != 0
    }
}

/// Byte offset of the saved program counter inside a signal frame.
///
/// The injected fault handler adds an offset to this field so that
/// `sigreturn` resumes at the application's error path instead of the
/// blocked instruction (paper Figure 5, step ③).
pub const SIG_FRAME_PC: u64 = 0;
/// Byte offset of the packed comparison flags.
pub const SIG_FRAME_FLAGS: u64 = 8;
/// Byte offset of the faulting address (the trap instruction's address).
pub const SIG_FRAME_FAULT_ADDR: u64 = 16;
/// Byte offset of the signal number.
pub const SIG_FRAME_SIGNO: u64 = 24;
/// Byte offset of the saved register file (16 × 8 bytes, `r0` first).
pub const SIG_FRAME_REGS: u64 = 32;
/// Total size of a signal frame in bytes.
pub const SIGFRAME_SIZE: u64 = SIG_FRAME_REGS + 16 * 8;
/// [`SIGFRAME_SIZE`] as a length.
pub(crate) const SIGFRAME_LEN: usize = 160;
const _: () = assert!(SIGFRAME_LEN as u64 == SIGFRAME_SIZE);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        for signal in Signal::ALL {
            assert_eq!(Signal::from_number(signal.number()), Some(signal));
        }
        assert_eq!(Signal::from_number(99), None);
    }

    #[test]
    fn sigkill_is_uncatchable() {
        assert!(!Signal::Sigkill.catchable());
        assert!(Signal::Sigtrap.catchable());
    }

    #[test]
    fn frame_layout_is_consistent() {
        // Compile-time layout checks (clippy: assertions_on_constants).
        const _: () = {
            assert!(SIG_FRAME_PC < SIG_FRAME_FLAGS);
            assert!(SIG_FRAME_FLAGS < SIG_FRAME_FAULT_ADDR);
            assert!(SIG_FRAME_FAULT_ADDR < SIG_FRAME_SIGNO);
            assert!(SIG_FRAME_SIGNO < SIG_FRAME_REGS);
        };
        assert_eq!(SIGFRAME_SIZE, 32 + 128);
    }

    #[test]
    fn default_action_is_unhandled() {
        assert!(!SigAction::default().is_handled());
        assert!(SigAction {
            handler: 0x1000,
            restorer: 0x2000,
            mask: 0
        }
        .is_handled());
    }
}
