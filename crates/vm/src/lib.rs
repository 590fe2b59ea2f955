//! # dynacut-vm — the DCVM kernel
//!
//! A deterministic user-space "operating system" that the DynaCut
//! reproduction customises, exactly the way the paper's prototype
//! customises Linux processes. It provides every kernel facility the
//! paper's mechanisms depend on:
//!
//! * **Processes** with paged address spaces, per-VMA permissions and
//!   `fork` ([`Process`], [`AddressSpace`], [`Vma`]) — the master/worker
//!   Nginx analogue is a real two-process program here,
//! * an **interpreter** that raises `SIGSEGV` on non-executable fetches
//!   and `SIGTRAP` on the `0xCC` trap byte ([`Signal`]), delivering
//!   signals through registered handlers with an editable **signal frame**
//!   (the injected fault handler updates the saved instruction pointer,
//!   paper §3.2.2, Figure 5),
//! * **syscalls** (exit/read/write/socket/accept/fork/sigaction/…,
//!   [`Sysno`], [`Errno`]),
//! * a simulated **TCP stack** whose connections survive a
//!   checkpoint/restore cycle ([`Kernel::client_connect`]) — the
//!   `TCP_REPAIR` behaviour CRIU relies on (paper §3.3),
//! * a deterministic **nanosecond clock** advanced by instruction
//!   retirement, giving reproducible throughput timelines (Figure 8),
//! * **hooks** ([`Hook`]) for the drcov-style coverage tracer.
//!
//! The kernel exposes dump/restore accessors ([`Kernel::freeze`], VMA and
//! page iteration, register access) consumed by the `dynacut-criu` crate.
//!
//! A narrowing `as` cast is denied crate-wide: a value that may not fit
//! goes through `try_from`, and a cast that truncates on purpose says why
//! in an `#[allow]`.
#![deny(clippy::cast_possible_truncation)]

mod bcache;
mod cpu;
mod error;
pub mod events;
pub mod fault;
mod fs;
mod hook;
mod interp;
mod kernel;
mod loader;
mod mem;
mod net;
mod process;
mod sched;
mod signal;
mod syscall;
mod vma;

pub use bcache::BlockCache;
pub use cpu::{CpuState, Flags};
pub use error::VmError;
pub use events::{
    Counter, EventKind, FlightEvent, FlightRecorder, Metrics, Phase, RollbackStep,
    VERIFIER_EVENT_BIT,
};
pub use fs::{FdTable, FileDesc, VfsFile};
pub use hook::{Hook, NullHook};
pub use kernel::{ClientConn, ExitStatus, Kernel, RunOutcome, DEFAULT_PUMP_CHUNK_NS};
pub use loader::{LoadSpec, LoadedModule, EXE_BASE, LIB_BASE, STACK_BASE, STACK_SIZE};
pub use mem::{AddressSpace, DisplacedPage, Page, SharedFrame};
pub use net::{ConnId, TcpConn, TcpState};
pub use process::{Pid, ProcState, Process, SYSCALL_FILTER_BITS};
pub use sched::{SchedClass, SchedRecord, BOOST_INTERVAL_NS, SCHED_LEVELS};
pub use signal::{
    SigAction, Signal, SIGFRAME_SIZE, SIG_FRAME_FAULT_ADDR, SIG_FRAME_FLAGS, SIG_FRAME_PC,
    SIG_FRAME_REGS, SIG_FRAME_SIGNO,
};
pub use syscall::{err_ret, is_err, perms_from_bits, perms_to_bits, Errno, Sysno};
pub use vma::Vma;

pub use dynacut_obj::{Perms, PAGE_SIZE};
