//! Checkpointing a frozen process into images.

use crate::images::*;
use crate::CriuError;
use dynacut_obj::PAGE_SIZE;
use dynacut_vm::{FileDesc, Kernel, Pid, ProcState, SharedFrame};
use std::collections::BTreeMap;

/// Options controlling the dump, mirroring the paper's CRIU modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpOptions {
    /// Dump pages of executable (file-backed text) VMAs.
    ///
    /// Stock CRIU skips them — "code pages do not have to be saved because
    /// file-backed memory can be reconstructed … when a restored process
    /// attempts to access the virtual memory again" — which would silently
    /// discard the rewriter's `int3` patches. DynaCut "added an option in
    /// `criu/mem.c` to dump the private and executable pages" (§3.3); set
    /// this to `true` for that behaviour.
    pub dump_exec_pages: bool,
}

impl Default for DumpOptions {
    fn default() -> Self {
        // DynaCut's default: text edits must survive restore.
        DumpOptions {
            dump_exec_pages: true,
        }
    }
}

impl DumpOptions {
    /// Stock-CRIU behaviour: skip executable pages.
    pub fn stock_criu() -> Self {
        DumpOptions {
            dump_exec_pages: false,
        }
    }
}

/// Dumps one frozen process into a [`ProcessImage`], putting its TCP
/// connections into repair mode.
///
/// # Errors
///
/// Fails if the process does not exist or is not frozen.
pub fn dump(
    kernel: &mut Kernel,
    pid: Pid,
    options: &DumpOptions,
) -> Result<ProcessImage, CriuError> {
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::Dump) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::Dump,
        ));
    }
    {
        let proc = kernel.process(pid)?;
        if proc.state != ProcState::Frozen {
            return Err(CriuError::Vm(dynacut_vm::VmError::BadProcessState {
                pid,
                expected: "frozen",
            }));
        }
    }

    // TCP repair first, so buffered bytes are stable while we snapshot.
    let conn_ids = kernel.conn_ids_of(pid)?;
    kernel.repair_connections(&conn_ids);

    let proc = kernel.process(pid)?;

    let core = CoreImage {
        pid: proc.pid,
        parent: proc.parent,
        name: proc.name.clone(),
        regs: proc.cpu.regs,
        pc: proc.cpu.pc,
        flags_bits: proc.cpu.flags.to_bits(),
        sigactions: proc.sigactions,
        signal_depth: proc.signal_depth,
        insns_retired: proc.insns_retired,
        modules: proc
            .modules
            .iter()
            .map(|m| ModuleRef {
                name: m.image.name.clone(),
                base: m.base,
            })
            .collect(),
        syscall_filter: proc.syscall_filter,
    };

    let mm = MmImage {
        vmas: proc
            .mem
            .vmas()
            .iter()
            .map(|v| VmaImage {
                start: v.start,
                end: v.end,
                perms: v.perms,
                name: v.name.clone(),
            })
            .collect(),
    };

    // A page still backed by a shared frame is dumped as that frame; only
    // a private page is copied.
    let pages: BTreeMap<u64, SharedFrame> = proc
        .mem
        .page_frames()
        .filter(|&(base, _)| {
            options.dump_exec_pages || !proc.mem.vma_at(base).is_some_and(|vma| vma.perms.exec)
        })
        .collect();

    let files = FilesImage {
        fds: proc
            .fds
            .iter()
            .map(|(fd, desc)| {
                let entry = match desc {
                    FileDesc::Console => FdImage::Console,
                    FileDesc::File { file, pos } => FdImage::File {
                        path: file.path.clone(),
                        pos: *pos,
                    },
                    FileDesc::Socket => FdImage::Socket,
                    FileDesc::Listener { port } => FdImage::Listener { port: *port },
                    FileDesc::Conn(id) => FdImage::Conn { id: *id },
                };
                (fd, entry)
            })
            .collect(),
    };

    let mut tcp = TcpImage::default();
    for id in &conn_ids {
        if let Some(conn) = kernel.conn_snapshot(*id) {
            tcp.conns.push(TcpConnImage {
                id: *id,
                port: conn.port,
                to_server: conn.to_server.iter().copied().collect(),
                to_client: conn.to_client.iter().copied().collect(),
            });
        }
    }

    kernel.record_flight(
        Some(pid),
        dynacut_vm::EventKind::ProcessDumped {
            page_bytes: pages.len() as u64 * PAGE_SIZE,
        },
    );

    Ok(ProcessImage {
        core,
        mm,
        pages,
        files,
        tcp,
        exec_pages_dumped: options.dump_exec_pages,
    })
}

/// Dumps several processes (e.g. an Nginx master and its worker) into one
/// [`CheckpointImage`].
///
/// # Errors
///
/// Fails if any process is missing or not frozen.
pub fn dump_many(
    kernel: &mut Kernel,
    pids: &[Pid],
    options: &DumpOptions,
) -> Result<CheckpointImage, CriuError> {
    let mut procs = Vec::with_capacity(pids.len());
    for &pid in pids {
        procs.push(dump(kernel, pid, options)?);
    }
    Ok(CheckpointImage {
        procs,
        time_ns: kernel.clock_ns(),
    })
}
