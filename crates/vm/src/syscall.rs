//! The guest syscall ABI: numbers, errnos, argument decoders, outcomes.
//!
//! The guest invokes the kernel with the `syscall` instruction: the number
//! in `r0`, arguments in `r1..=r5`, the result back in `r0`. Errors are
//! returned as `u64::MAX - errno` style negative values ([`err_ret`]),
//! named by [`Errno`].
//!
//! Each raw argument is decoded once, by a function here that returns
//! `Result<_, Errno>`, and a handler returns one [`Outcome`] (DESIGN §15).

use crate::events::Counter;
use crate::fs::{FdTable, FileDesc};
use crate::mem::AddressSpace;
use crate::process::{Pid, WaitReason};
use crate::signal::Signal;
use dynacut_obj::checked_page_align;

/// Syscall numbers of the DCVM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Sysno {
    /// `exit(code)` — terminate the calling process.
    Exit = 0,
    /// `write(fd, buf, len) -> n` — console, file or socket write.
    Write = 1,
    /// `read(fd, buf, len) -> n` — blocking read.
    Read = 2,
    /// `open(path_ptr, path_len) -> fd` — open a VFS file read-only.
    Open = 3,
    /// `close(fd)`.
    Close = 4,
    /// `socket() -> fd`.
    Socket = 5,
    /// `bind(fd, port)`.
    Bind = 6,
    /// `listen(fd)`.
    Listen = 7,
    /// `accept(fd) -> connfd` — blocking.
    Accept = 8,
    /// `fork() -> child_pid | 0`.
    Fork = 9,
    /// `getpid() -> pid`.
    Getpid = 10,
    /// `nanosleep(ns)`.
    Nanosleep = 11,
    /// `sigaction(signo, handler, restorer, mask)`.
    Sigaction = 12,
    /// `sigreturn(frame_ptr)` — restore context from a signal frame.
    Sigreturn = 13,
    /// `mmap(addr_hint, len, perms) -> addr` — anonymous mapping.
    Mmap = 14,
    /// `munmap(addr, len)`.
    Munmap = 15,
    /// `mprotect(addr, len, perms)`.
    Mprotect = 16,
    /// `clock_gettime() -> ns` — kernel time.
    ClockGettime = 17,
    /// `emit_event(code)` — phase marker for host tooling (nudge channel).
    EmitEvent = 18,
    /// `kill(pid, signo)`.
    Kill = 19,
}

impl Sysno {
    /// Converts a raw syscall number.
    pub fn from_raw(raw: u64) -> Option<Sysno> {
        use Sysno::*;
        Some(match raw {
            0 => Exit,
            1 => Write,
            2 => Read,
            3 => Open,
            4 => Close,
            5 => Socket,
            6 => Bind,
            7 => Listen,
            8 => Accept,
            9 => Fork,
            10 => Getpid,
            11 => Nanosleep,
            12 => Sigaction,
            13 => Sigreturn,
            14 => Mmap,
            15 => Munmap,
            16 => Mprotect,
            17 => ClockGettime,
            18 => EmitEvent,
            19 => Kill,
            _ => return None,
        })
    }
}

/// Encodes a syscall error as a "negative" return value.
pub fn err_ret(errno: u64) -> u64 {
    u64::MAX - errno
}

/// A syscall error, numbered as on Linux. The guest sees [`Errno::ret`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Errno {
    /// No such file, or a path that is not UTF-8 (`open`).
    Enoent = 2,
    /// No such process (`kill`).
    Esrch = 3,
    /// Not an open descriptor of the kind the call needs.
    Ebadf = 9,
    /// The pid space is used up (`fork`).
    Eagain = 11,
    /// No room for the mapping (`mmap`).
    Enomem = 12,
    /// A user buffer the caller may not access.
    Efault = 14,
    /// An invalid argument.
    Einval = 22,
    /// The descriptor space is used up.
    Emfile = 24,
    /// A write to a closed connection.
    Epipe = 32,
    /// An unknown syscall number.
    Enosys = 38,
}

impl Errno {
    /// The `r0` value that returns this error.
    pub fn ret(self) -> u64 {
        err_ret(self as u64)
    }

    /// The flight-recorder counter of syscalls that failed with this
    /// errno, named after it: `syscall.failed.ebadf`.
    pub fn failed_counter(self) -> Counter {
        match self {
            Errno::Enoent => Counter::SyscallFailedEnoent,
            Errno::Esrch => Counter::SyscallFailedEsrch,
            Errno::Ebadf => Counter::SyscallFailedEbadf,
            Errno::Eagain => Counter::SyscallFailedEagain,
            Errno::Enomem => Counter::SyscallFailedEnomem,
            Errno::Efault => Counter::SyscallFailedEfault,
            Errno::Einval => Counter::SyscallFailedEinval,
            Errno::Emfile => Counter::SyscallFailedEmfile,
            Errno::Epipe => Counter::SyscallFailedEpipe,
            Errno::Enosys => Counter::SyscallFailedEnosys,
        }
    }

    /// The errno a syscall return value carries, if it is one of these.
    pub fn from_ret(value: u64) -> Option<Errno> {
        use Errno::*;
        [
            Enoent, Esrch, Ebadf, Eagain, Enomem, Efault, Einval, Emfile, Epipe, Enosys,
        ]
        .into_iter()
        .find(|errno| errno.ret() == value)
    }
}

/// What a handler asks of the dispatcher, the one place that writes `r0`,
/// rewinds `pc` and parks. A handler's `Err(errno)` is `Ret(errno.ret())`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    /// Completed: `r0` gets the value and the slice goes on.
    Ret(u64),
    /// Not ready: rewind to the `syscall` instruction and park on the
    /// reason, so the call runs again when it wakes.
    Restart(WaitReason),
    /// Completed, with `r0` restored among all the registers (sigreturn).
    Resume,
    /// The slice ends: the caller exited or was killed (`None`), or the
    /// call completed with 0 and the caller sleeps on the reason.
    End(Option<WaitReason>),
}

/// A descriptor number: EBADF unless it fits the `u32` descriptor space.
pub(crate) fn fd(arg: u64) -> Result<u32, Errno> {
    u32::try_from(arg).map_err(|_| Errno::Ebadf)
}

/// A pid: ESRCH unless it fits the `u32` pid space, as for a vacant pid.
pub(crate) fn pid(arg: u64) -> Result<Pid, Errno> {
    u32::try_from(arg).map(Pid).map_err(|_| Errno::Esrch)
}

/// A port: EINVAL unless it fits a `u16`.
pub(crate) fn port(arg: u64) -> Result<u16, Errno> {
    u16::try_from(arg).map_err(|_| Errno::Einval)
}

/// A signal: EINVAL unless the number names one.
pub(crate) fn signal(arg: u64) -> Result<Signal, Errno> {
    Signal::from_number(arg).ok_or(Errno::Einval)
}

/// A mapping length (0 counts as 1) in whole pages: `errno` on overflow.
pub(crate) fn page_len(arg: u64, errno: Errno) -> Result<u64, Errno> {
    checked_page_align(arg.max(1)).ok_or(errno)
}

/// Copies the user range `(ptr, len)` out: EFAULT unless all of it is
/// readable, checked before the host buffer is allocated.
pub(crate) fn copy_from_user(mem: &AddressSpace, ptr: u64, len: u64) -> Result<Vec<u8>, Errno> {
    mem.read_vec_checked(ptr, len).map_err(|_| Errno::Efault)
}

/// Copies `bytes` to the user address `ptr`: EFAULT, with nothing written,
/// unless all of the range is writable.
pub(crate) fn copy_to_user(mem: &mut AddressSpace, ptr: u64, bytes: &[u8]) -> Result<(), Errno> {
    mem.write_checked(ptr, bytes).map_err(|_| Errno::Efault)
}

/// Installs `desc` at a fresh descriptor number and returns the number:
/// EMFILE once the descriptor space is used up.
pub(crate) fn new_fd(fds: &mut FdTable, desc: FileDesc) -> Result<Outcome, Errno> {
    let fd = fds.alloc(desc).ok_or(Errno::Emfile)?;
    Ok(Outcome::Ret(u64::from(fd)))
}

/// Whether a return value is an error (top bit heuristic like Linux's
/// `-4095..-1` window).
pub fn is_err(value: u64) -> bool {
    value > u64::MAX - 4096
}

/// Perms encoding used by mmap/mprotect arguments: bit0 read, bit1 write,
/// bit2 exec.
pub fn perms_from_bits(bits: u64) -> dynacut_obj::Perms {
    dynacut_obj::Perms {
        read: bits & 1 != 0,
        write: bits & 2 != 0,
        exec: bits & 4 != 0,
    }
}

/// Inverse of [`perms_from_bits`].
pub fn perms_to_bits(perms: dynacut_obj::Perms) -> u64 {
    (perms.read as u64) | (perms.write as u64) << 1 | (perms.exec as u64) << 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_numbers_round_trip() {
        for raw in 0..20u64 {
            let sysno = Sysno::from_raw(raw).expect("defined");
            assert_eq!(sysno as u64, raw);
        }
        assert_eq!(Sysno::from_raw(20), None);
        assert_eq!(Sysno::from_raw(u64::MAX), None);
    }

    #[test]
    fn error_encoding_is_detectable() {
        assert!(is_err(err_ret(1)));
        assert!(is_err(err_ret(4095)));
        assert!(!is_err(0));
        assert!(!is_err(12345));
    }

    #[test]
    fn perms_bits_round_trip() {
        for bits in 0..8u64 {
            assert_eq!(perms_to_bits(perms_from_bits(bits)), bits);
        }
    }
}
