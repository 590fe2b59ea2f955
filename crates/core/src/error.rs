//! Error type for the DynaCut framework.

use std::error::Error;
use std::fmt;

/// Errors raised while customizing a process.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DynacutError {
    /// A checkpoint/restore or image-editing failure.
    Criu(dynacut_criu::CriuError),
    /// A kernel operation failed.
    Vm(dynacut_vm::VmError),
    /// A feature references a module not mapped in the target process.
    UnknownModule(String),
    /// A feature's blocks fall outside the module's text.
    BlockOutOfRange {
        /// The feature being applied.
        feature: String,
        /// The offending module-relative offset.
        offset: u64,
    },
    /// Building or linking the fault-handler library failed.
    Handler(dynacut_obj::ObjError),
    /// The plan is contradictory (e.g. the same block disabled and
    /// enabled).
    BadPlan(String),
    /// `allow_syscalls` names a syscall number the per-process filter
    /// bitmask cannot represent (≥ [`dynacut_vm::SYSCALL_FILTER_BITS`]).
    SyscallOutOfRange(u64),
    /// An armed test fault fired at this phase of the customize cycle
    /// (see [`dynacut_vm::fault`]); only possible under the
    /// `fault-injection` feature.
    FaultInjected(dynacut_vm::fault::FaultPhase),
    /// The coverage tracer rejected an operation (e.g. a block offset or
    /// module count beyond the drcov field widths).
    Trace(dynacut_trace::TraceError),
}

impl DynacutError {
    /// The phase an armed test fault fired at, if this error came from
    /// one — whether it fired in this crate or inside the checkpoint
    /// layer. `None` for real errors.
    pub fn injected_phase(&self) -> Option<dynacut_vm::fault::FaultPhase> {
        match self {
            DynacutError::FaultInjected(phase) => Some(*phase),
            DynacutError::Criu(dynacut_criu::CriuError::FaultInjected(phase)) => Some(*phase),
            _ => None,
        }
    }
}

impl fmt::Display for DynacutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynacutError::Criu(err) => write!(f, "checkpoint error: {err}"),
            DynacutError::Vm(err) => write!(f, "kernel error: {err}"),
            DynacutError::UnknownModule(name) => {
                write!(f, "module `{name}` is not mapped in the target process")
            }
            DynacutError::BlockOutOfRange { feature, offset } => {
                write!(
                    f,
                    "feature `{feature}` block at {offset:#x} is outside the module text"
                )
            }
            DynacutError::Handler(err) => write!(f, "fault-handler build error: {err}"),
            DynacutError::BadPlan(reason) => write!(f, "bad rewrite plan: {reason}"),
            DynacutError::SyscallOutOfRange(sysno) => write!(
                f,
                "syscall number {sysno} cannot be allowed: the filter bitmask holds {} bits",
                dynacut_vm::SYSCALL_FILTER_BITS
            ),
            DynacutError::FaultInjected(phase) => {
                write!(f, "injected fault fired at phase `{phase}`")
            }
            DynacutError::Trace(err) => write!(f, "trace error: {err}"),
        }
    }
}

impl Error for DynacutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DynacutError::Criu(err) => Some(err),
            DynacutError::Vm(err) => Some(err),
            DynacutError::Handler(err) => Some(err),
            DynacutError::Trace(err) => Some(err),
            _ => None,
        }
    }
}

impl From<dynacut_criu::CriuError> for DynacutError {
    fn from(err: dynacut_criu::CriuError) -> Self {
        DynacutError::Criu(err)
    }
}

impl From<dynacut_vm::VmError> for DynacutError {
    fn from(err: dynacut_vm::VmError) -> Self {
        DynacutError::Vm(err)
    }
}

impl From<dynacut_obj::ObjError> for DynacutError {
    fn from(err: dynacut_obj::ObjError) -> Self {
        DynacutError::Handler(err)
    }
}

impl From<dynacut_trace::TraceError> for DynacutError {
    fn from(err: dynacut_trace::TraceError) -> Self {
        DynacutError::Trace(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty() {
        let samples = [
            DynacutError::UnknownModule("nginx".into()),
            DynacutError::BlockOutOfRange {
                feature: "PUT".into(),
                offset: 0x999,
            },
            DynacutError::BadPlan("overlap".into()),
        ];
        for err in samples {
            assert!(!err.to_string().is_empty());
        }
    }
}
