//! # dynacut-criu — checkpoint/restore in userspace for the DCVM
//!
//! The paper's process rewriter works on **static process images** dumped
//! by CRIU and edited through an extended CRIT tool (paper §3.2.1, §3.3).
//! This crate reproduces that layer for DCVM processes:
//!
//! * [`ProcessImage`] — the image-file set CRIU produces per process:
//!   `core` (registers, sigactions), `mm` (VMAs), the populated pages
//!   (`pagemap` + `pages`, held in memory as one map from page base to
//!   [`SharedFrame`](dynacut_vm::SharedFrame) and split into the two
//!   files only by the codec), `files` (descriptors) and `tcp` (repaired
//!   connections),
//! * [`dump`]/[`CheckpointStore::restore`] — checkpoint a frozen process
//!   and bring it back from its store entry, including live TCP
//!   connections (`TCP_REPAIR` analogue). A page travels as one frame
//!   from dump to restore: the dump shares a page still backed by a
//!   shared frame and copies a private one, an image edit copies only
//!   the page it writes, the store keeps its own frame per distinct
//!   page in a content-addressed [`PageStore`], and the restore
//!   installs those frames, zero-copy; a [`RestoreTransaction`] swaps
//!   the restored processes in all-or-nothing,
//! * [`DumpOptions::dump_exec_pages`] — the paper's one-line but essential
//!   CRIU patch: stock CRIU skips file-backed executable pages (they are
//!   reconstructed from the binary on restore), so **rewites to text would
//!   be lost**; DynaCut's patched `criu/mem.c` dumps `PROT_EXEC` pages so
//!   the rewriter's edits survive. Both behaviours are implemented and
//!   tested,
//! * CRIT-style editing ([`ProcessImage::write_mem`],
//!   [`ProcessImage::add_vma`], [`ProcessImage::unmap_range`],
//!   [`ProcessImage::set_sigaction`], …) — the API surface the paper added
//!   to CRIT "to provide easy-to-use APIs for process transformation",
//! * a binary codec ([`CheckpointImage::to_bytes`]) so checkpoints can
//!   be stored on a tmpfs-like in-memory store and their sizes reported
//!   (Figure 7's "image size" row),
//! * **incremental checkpointing** ([`pre_dump`], [`CheckpointStore`]) —
//!   the dirty-page bitmap and the two-phase pre-dump protocol that
//!   shrink the rewrite freeze window. Every checkpoint enters the
//!   store through [`CheckpointStore::put_full`] and is kept flat (the
//!   image itself, on the store's frames, plus one content-addressed
//!   page key per page), so pages unchanged since an earlier checkpoint
//!   are shared, not copied, and no read walks a chain,
//! * **promotion** ([`CheckpointStore::canary_edit`],
//!   [`CanaryEdit::promote`]) — a rollout's canary cycle's code changes,
//!   computed once and installed in place on the other replicas as
//!   shared store frames, with a [`Promotion`] receipt that undoes
//!   them, and
//! * a textual decoder ([`ProcessImage::decode_text`]) mirroring
//!   `crit decode`.
//!
//! A narrowing `as` cast is denied crate-wide: a value that may not fit
//! goes through `try_from`, and a cast that truncates on purpose says why
//! in an `#[allow]`.
#![deny(clippy::cast_possible_truncation)]

mod codec;
mod dump;
mod edit;
mod images;
mod incremental;
mod page_store;
mod promote;
mod restore;
mod text;

pub use dump::{dump, dump_many, DumpOptions};

/// The offset of `addr` inside its page.
pub(crate) fn page_offset(addr: u64) -> usize {
    usize::try_from(addr & (dynacut_obj::PAGE_SIZE - 1))
        .expect("an in-page offset is below PAGE_LEN")
}
pub use images::{
    CheckpointImage, CoreImage, FdImage, FilesImage, MmImage, ModuleRef, ProcessImage,
    TcpConnImage, TcpImage, VmaImage,
};
pub use incremental::{mark_clean_after_dump, pre_dump, CheckpointStore, CkptId, PreDumpStats};
pub use page_store::{PageKey, PageStore};
pub use promote::{CanaryEdit, Promotion};
pub use restore::{CommittedRestore, ModuleRegistry, RestoreTransaction};

/// Error type shared by dump, restore and editing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CriuError {
    /// The kernel rejected an operation.
    Vm(dynacut_vm::VmError),
    /// An address is not covered by any VMA in the image.
    AddressNotMapped(u64),
    /// A new VMA overlaps an existing one.
    VmaOverlap(u64),
    /// The image is malformed or truncated.
    BadImage(String),
    /// A module named in the image is missing from the registry.
    UnknownModule(String),
    /// A symbol could not be resolved during library injection.
    UnresolvedSymbol(String),
    /// Image editing produced an inconsistent state.
    Inconsistent(String),
    /// A checkpoint id passed to a read, restore or release is not live
    /// in the store: it was never stored or has been released.
    MissingParent(CkptId),
    /// Two pages with distinct contents hashed to the same
    /// [`PageKey`]. Interning the second would hand
    /// later restores the first page's bytes, so intern refuses instead.
    PageCollision(page_store::PageKey),
    /// A page reference was released against a key the store does not
    /// hold — a double release or a release of something never interned.
    /// Silently ignoring it would mask the exact refcount bugs the leak
    /// invariant (`logical_pages_bytes == stored_pages_bytes`) exists to
    /// catch.
    UnknownPage(page_store::PageKey),
    /// A promotion target does not match the canary it would take code
    /// changes from: it maps the canary's boot modules under other
    /// names, bases or executable VMAs, maps a module that is neither a
    /// boot module nor an injected library, or has no free range for the
    /// new library. Nothing of the target was changed.
    ReplicaMismatch {
        /// The target.
        pid: dynacut_vm::Pid,
        /// What differs.
        reason: String,
    },
    /// An armed test fault fired at this phase (see
    /// [`dynacut_vm::fault`]); only possible under the `fault-injection`
    /// feature.
    FaultInjected(dynacut_vm::fault::FaultPhase),
}

impl std::fmt::Display for CriuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriuError::Vm(err) => write!(f, "kernel error: {err}"),
            CriuError::AddressNotMapped(addr) => {
                write!(f, "address {addr:#x} is not mapped in the image")
            }
            CriuError::VmaOverlap(addr) => write!(f, "new vma at {addr:#x} overlaps"),
            CriuError::BadImage(reason) => write!(f, "malformed checkpoint image: {reason}"),
            CriuError::UnknownModule(name) => write!(f, "module `{name}` not in registry"),
            CriuError::UnresolvedSymbol(name) => write!(f, "cannot resolve symbol `{name}`"),
            CriuError::Inconsistent(reason) => write!(f, "inconsistent image: {reason}"),
            CriuError::MissingParent(id) => {
                write!(f, "checkpoint {id} is not live in the checkpoint store")
            }
            CriuError::PageCollision(key) => {
                write!(
                    f,
                    "page hash collision on {key}: distinct contents map to one key"
                )
            }
            CriuError::UnknownPage(key) => {
                write!(
                    f,
                    "{key} is not in the page store (double release or never interned)"
                )
            }
            CriuError::ReplicaMismatch { pid, reason } => {
                write!(f, "{pid} does not match the canary: {reason}")
            }
            CriuError::FaultInjected(phase) => {
                write!(f, "injected fault fired at phase `{phase}`")
            }
        }
    }
}

impl std::error::Error for CriuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CriuError::Vm(err) => Some(err),
            _ => None,
        }
    }
}

impl From<dynacut_vm::VmError> for CriuError {
    fn from(err: dynacut_vm::VmError) -> Self {
        CriuError::Vm(err)
    }
}

impl From<dynacut_obj::wire::WireError> for CriuError {
    fn from(err: dynacut_obj::wire::WireError) -> Self {
        CriuError::BadImage(err.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_nonempty() {
        let samples = [
            CriuError::AddressNotMapped(0x10),
            CriuError::VmaOverlap(0x20),
            CriuError::BadImage("short".into()),
            CriuError::UnknownModule("libc".into()),
            CriuError::UnresolvedSymbol("f".into()),
            CriuError::Inconsistent("pagemap".into()),
            CriuError::MissingParent(CkptId(7)),
            CriuError::PageCollision(PageKey::of(b"a")),
            CriuError::UnknownPage(PageKey::of(b"b")),
        ];
        for err in samples {
            assert!(!err.to_string().is_empty());
        }
    }
}
