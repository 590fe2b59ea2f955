//! Error type for kernel operations.

use crate::process::Pid;
use std::error::Error;
use std::fmt;

/// Errors raised by the DCVM kernel's host-facing API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// No process with this pid exists.
    NoSuchProcess(Pid),
    /// The operation requires the process to be frozen (or not frozen).
    BadProcessState {
        /// The process in question.
        pid: Pid,
        /// What the operation expected.
        expected: &'static str,
    },
    /// A memory mapping overlaps an existing VMA.
    MappingOverlap {
        /// Requested start address.
        start: u64,
        /// Requested length.
        len: u64,
    },
    /// An address or length is not page-aligned.
    Unaligned(u64),
    /// A guest memory access touched an unmapped or permission-protected
    /// address (host-side accessors only; guest-side faults become
    /// signals).
    BadAccess {
        /// The faulting address.
        addr: u64,
        /// What the access wanted.
        kind: &'static str,
    },
    /// No listener on the requested port.
    ConnectionRefused(u16),
    /// The connection id is unknown or closed.
    BadConnection(u64),
    /// A loader error (propagated from `dynacut-obj`).
    Load(dynacut_obj::ObjError),
    /// Too many processes or file descriptors.
    ResourceExhausted(&'static str),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            VmError::BadProcessState { pid, expected } => {
                write!(f, "process {pid} is not {expected}")
            }
            VmError::MappingOverlap { start, len } => {
                write!(
                    f,
                    "mapping [{start:#x}, +{len:#x}) overlaps an existing vma"
                )
            }
            VmError::Unaligned(addr) => write!(f, "address {addr:#x} is not page-aligned"),
            VmError::BadAccess { addr, kind } => {
                write!(f, "bad {kind} access at {addr:#x}")
            }
            VmError::ConnectionRefused(port) => write!(f, "connection refused on port {port}"),
            VmError::BadConnection(id) => write!(f, "unknown or closed connection {id}"),
            VmError::Load(err) => write!(f, "load error: {err}"),
            VmError::ResourceExhausted(what) => write!(f, "resource exhausted: {what}"),
        }
    }
}

impl Error for VmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VmError::Load(err) => Some(err),
            _ => None,
        }
    }
}

impl From<dynacut_obj::ObjError> for VmError {
    fn from(err: dynacut_obj::ObjError) -> Self {
        VmError::Load(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty() {
        let samples = [
            VmError::NoSuchProcess(Pid(7)),
            VmError::BadProcessState {
                pid: Pid(1),
                expected: "frozen",
            },
            VmError::MappingOverlap {
                start: 0x1000,
                len: 0x2000,
            },
            VmError::Unaligned(3),
            VmError::BadAccess {
                addr: 0xdead,
                kind: "read",
            },
            VmError::ConnectionRefused(80),
            VmError::BadConnection(9),
            VmError::ResourceExhausted("fds"),
        ];
        for err in samples {
            assert!(!err.to_string().is_empty());
        }
    }
}
