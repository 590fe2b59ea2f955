//! The checkpoint image types — one struct per CRIU image file.

use dynacut_obj::{checked_page_align, Perms, PAGE_LEN};
use dynacut_vm::{ConnId, Pid, SharedFrame, SigAction, Signal};
use std::collections::BTreeMap;

/// A module mapped in the checkpointed process: name + base address.
///
/// Restore re-creates file-backed text from the named binary when the
/// checkpoint was taken without [`DumpOptions::dump_exec_pages`]
/// (stock-CRIU behaviour), and the rewriter uses it to locate original
/// instruction bytes.
///
/// [`DumpOptions::dump_exec_pages`]: crate::DumpOptions::dump_exec_pages
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRef {
    /// Module (binary) name, resolved through a
    /// [`ModuleRegistry`](crate::ModuleRegistry).
    pub name: String,
    /// Base address the module was loaded at.
    pub base: u64,
}

/// `core.img`: registers, signal state and process identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreImage {
    /// Process id at dump time (restore reuses it).
    pub pid: Pid,
    /// Parent pid, if any.
    pub parent: Option<Pid>,
    /// Executable name.
    pub name: String,
    /// General-purpose registers.
    pub regs: [u64; 16],
    /// Program counter.
    pub pc: u64,
    /// Packed comparison flags.
    pub flags_bits: u64,
    /// Signal dispositions (handler, restorer, mask) per signal number —
    /// the field DynaCut edits to install its fault handler (paper §3.3).
    pub sigactions: [SigAction; Signal::COUNT],
    /// Live signal-handler nesting depth.
    pub signal_depth: u32,
    /// Instructions retired before the dump.
    pub insns_retired: u64,
    /// Modules mapped into the process.
    pub modules: Vec<ModuleRef>,
    /// Syscall allow-bitmask (the seccomp analogue); all-ones permits
    /// everything. DynaCut edits this to install temporal syscall
    /// specialization (paper §5, after Ghavamnia et al.).
    pub syscall_filter: u64,
}

/// One VMA entry of `mm.img`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmaImage {
    /// Start address.
    pub start: u64,
    /// End address (exclusive).
    pub end: u64,
    /// Protection flags.
    pub perms: Perms,
    /// Mapping name.
    pub name: String,
}

/// `mm.img`: the full VMA list ("a collection of all the VMA regions of
/// the application", paper §3.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MmImage {
    /// VMAs in address order.
    pub vmas: Vec<VmaImage>,
}

impl MmImage {
    /// The VMA containing `addr`, if any.
    pub fn vma_at(&self, addr: u64) -> Option<&VmaImage> {
        self.vmas.iter().find(|v| addr >= v.start && addr < v.end)
    }

    /// Finds `len` bytes of unmapped, page-aligned space at or above
    /// `hint`, or `None` if no such range fits below the top of the
    /// address space.
    pub fn find_free(&self, hint: u64, len: u64) -> Option<u64> {
        let len = checked_page_align(len)?;
        let mut candidate = checked_page_align(hint)?;
        loop {
            let end = candidate.checked_add(len)?;
            match self
                .vmas
                .iter()
                .find(|v| v.start < end && candidate < v.end)
            {
                None => return Some(candidate),
                Some(vma) => candidate = vma.end,
            }
        }
    }
}

/// One file-descriptor entry of `files.img`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdImage {
    /// The console.
    Console,
    /// An open VFS file and its cursor.
    File {
        /// File path.
        path: String,
        /// Read offset.
        pos: u64,
    },
    /// An unbound socket.
    Socket,
    /// A bound/listening socket.
    Listener {
        /// Bound port.
        port: u16,
    },
    /// An established connection (re-attached on restore via TCP repair).
    Conn {
        /// Kernel connection id.
        id: ConnId,
    },
}

/// `files.img`: the descriptor table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FilesImage {
    /// `(fd, entry)` pairs in fd order.
    pub fds: Vec<(u32, FdImage)>,
}

/// One repaired TCP connection in `tcp.img`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConnImage {
    /// Kernel connection id.
    pub id: ConnId,
    /// Server port.
    pub port: u16,
    /// Unread client→server bytes at dump time.
    pub to_server: Vec<u8>,
    /// Unsent server→client bytes at dump time.
    pub to_client: Vec<u8>,
}

/// `tcp.img`: established connections saved in repair mode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TcpImage {
    /// Connection snapshots.
    pub conns: Vec<TcpConnImage>,
}

/// The complete image set for one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessImage {
    /// Registers and signal state.
    pub core: CoreImage,
    /// VMA list.
    pub mm: MmImage,
    /// The populated pages, each a frame keyed by its page-aligned base
    /// address: CRIU's `pagemap.img` ("information about which virtual
    /// memory regions are populated", paper §3.3) and `pages.img` in one
    /// map. Only the codec splits them, into the on-disk pair. A frame
    /// may be shared with the process it was dumped from or with a
    /// checkpoint store; editing one copies it first (see
    /// [`SharedFrame::make_mut`]).
    pub pages: BTreeMap<u64, SharedFrame>,
    /// Descriptor table.
    pub files: FilesImage,
    /// TCP connections.
    pub tcp: TcpImage,
    /// Whether executable (file-backed text) pages were dumped. When
    /// `false` (stock CRIU), restore reconstructs all text from the binary
    /// and image-level text edits are silently lost — the precise failure
    /// mode DynaCut's criu/mem.c patch exists to avoid (paper §3.3).
    pub exec_pages_dumped: bool,
}

/// A checkpoint of one or more processes (Nginx dumps master + worker,
/// paper §4.1) plus the kernel clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointImage {
    /// Per-process images, in pid order.
    pub procs: Vec<ProcessImage>,
    /// Kernel time at dump.
    pub time_ns: u64,
}

impl CheckpointImage {
    /// Total size of all page payloads, in bytes (the dominant term of the
    /// paper's reported "image size").
    pub fn pages_bytes(&self) -> usize {
        self.procs.iter().map(|p| p.pages.len()).sum::<usize>() * PAGE_LEN
    }

    /// The image for `pid`, if present.
    pub fn proc_image(&self, pid: Pid) -> Option<&ProcessImage> {
        self.procs.iter().find(|p| p.core.pid == pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_obj::PAGE_SIZE;

    #[test]
    fn mm_find_free_skips_vmas() {
        let mm = MmImage {
            vmas: vec![
                VmaImage {
                    start: 0x1000,
                    end: 0x3000,
                    perms: Perms::RW,
                    name: "a".into(),
                },
                VmaImage {
                    start: 0x4000,
                    end: 0x5000,
                    perms: Perms::R,
                    name: "b".into(),
                },
            ],
        };
        assert_eq!(mm.find_free(0x1000, PAGE_SIZE), Some(0x3000));
        assert_eq!(mm.find_free(0x1000, 2 * PAGE_SIZE), Some(0x5000));
        assert_eq!(mm.vma_at(0x2000).unwrap().name, "a");
        assert!(mm.vma_at(0x3000).is_none());
    }
}
