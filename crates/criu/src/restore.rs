//! Restoring a process from (possibly rewritten) images.
//!
//! Every restore starts from a [`CheckpointStore`] entry: the store
//! stages it ([`CheckpointStore::stage_restore`]) and a
//! [`RestoreTransaction`] commits it. Restored pages are never copied
//! into the staged address space: each dumped page is installed as a
//! handle on the entry's refcounted [`SharedFrame`](dynacut_vm::SharedFrame),
//! the content-addressed [`PageStore`]'s own (`build_process`), deferring
//! any physical copy to the first guest write (CoW, DESIGN §12). The test
//! battery checks the result against [`CheckpointStore::materialize`]:
//! re-dumping a restored process gives back the materialized image,
//! byte for byte.
//!
//! [`CheckpointStore`]: crate::CheckpointStore
//! [`PageStore`]: crate::PageStore
//! [`CheckpointStore::stage_restore`]: crate::CheckpointStore::stage_restore
//! [`CheckpointStore::materialize`]: crate::CheckpointStore::materialize

use crate::images::*;
use crate::promote::module_range;
use crate::CriuError;
use dynacut_obj::{materialize, Image, PAGE_LEN, PAGE_SIZE};
use dynacut_vm::{
    BlockCache, CpuState, FdTable, FileDesc, Flags, Kernel, LoadedModule, Pid, Process, VfsFile,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maps module names to their binaries, the restore-time analogue of the
/// filesystem CRIU reads file-backed mappings from.
#[derive(Debug, Clone, Default)]
pub struct ModuleRegistry {
    modules: BTreeMap<String, Arc<Image>>,
}

impl ModuleRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a binary under its image name.
    pub fn insert(&mut self, image: Arc<Image>) {
        self.modules.insert(image.name.clone(), image);
    }

    /// Looks up a binary by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Image>> {
        self.modules.get(name)
    }

    /// The names of the registered binaries, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.modules.keys().map(String::as_str)
    }

    /// Keeps only the binaries whose name `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.modules.retain(|name, _| keep(name));
    }

    /// Resolves an import of `symbol` in a process that maps `modules`
    /// by [`dynacut_obj::resolve`], the rule the loader follows at spawn.
    /// A module missing from the registry defines nothing.
    pub fn resolve(&self, modules: &[ModuleRef], symbol: &str) -> Option<u64> {
        let binaries = modules
            .iter()
            .filter_map(|module| Some((&**self.get(&module.name)?, module.base)));
        dynacut_obj::resolve(binaries, symbol)
    }
}

/// The typed error for a failed link against a process image: an import
/// no mapped module defines, or a malformed binary.
pub(crate) fn link_error(err: dynacut_obj::ObjError) -> CriuError {
    match err {
        dynacut_obj::ObjError::MissingImport { symbol, .. } => CriuError::UnresolvedSymbol(symbol),
        other => CriuError::Inconsistent(other.to_string()),
    }
}

/// A fully-built restored process that has not touched the kernel yet.
///
/// [`build_process`] produces these; [`RestoreTransaction::commit`] swaps
/// them in. Keeping the build phase kernel-free is what makes the restore
/// transactional: every expensive, failure-prone step (module lookup,
/// text materialization) happens before the first original process is
/// disturbed.
#[derive(Debug)]
pub(crate) struct StagedProcess {
    /// The process, ready for [`Kernel::insert_process`].
    pub proc: Process,
    /// Listening ports its descriptor table references.
    pub listeners: Vec<u16>,
    /// Connections its descriptor table references (to leave repair mode
    /// at commit).
    pub conns: Vec<dynacut_vm::ConnId>,
}

/// Builds a restored [`Process`] from its image set **without mutating
/// the kernel** — the kernel is only consulted read-only for VFS file
/// contents. The returned [`StagedProcess`] carries the network side
/// effects (listeners to ensure, connections to unrepair) for the commit
/// phase to apply.
///
/// Dumped pages are backed by zero-copy handles on the image's own
/// [`SharedFrame`](dynacut_vm::SharedFrame)s. Every installed page
/// starts shared; the first guest write copy-on-writes it private.
/// Because the frames hold the dumped bytes, image edits take effect.
/// Executable VMAs with **no** dumped pages are reconstructed from the
/// binary in `registry` — the stock-CRIU file-backed-page path that
/// silently discards text rewrites (see
/// [`DumpOptions`](crate::DumpOptions)).
///
/// # Errors
///
/// Fails if a module is missing from the registry or the images are
/// inconsistent.
pub(crate) fn build_process(
    kernel: &Kernel,
    image: &ProcessImage,
    registry: &ModuleRegistry,
) -> Result<StagedProcess, CriuError> {
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::RestoreBuild) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::RestoreBuild,
        ));
    }
    let pid = image.core.pid;
    let mut proc = Process::new(pid, &image.core.name);
    proc.parent = image.core.parent;

    // 1. VMAs.
    for vma in &image.mm.vmas {
        proc.mem
            .map(vma.start, vma.end - vma.start, vma.perms, &vma.name)?;
    }

    // 2. Re-attach modules from the registry (also used to rebuild
    //    file-backed text where pages were not dumped). A base comes
    //    from the image, so it may be anything: one the module cannot
    //    sit at is refused before any address is computed from it.
    let mut modules = Vec::with_capacity(image.core.modules.len());
    for module_ref in &image.core.modules {
        let binary = registry
            .get(&module_ref.name)
            .ok_or_else(|| CriuError::UnknownModule(module_ref.name.clone()))?;
        if !module_ref.base.is_multiple_of(PAGE_SIZE)
            || module_range(module_ref.base, binary.footprint()).is_none()
        {
            return Err(CriuError::BadImage(format!(
                "module `{}` at {:#x} is unaligned or runs past the top of the address space",
                module_ref.name, module_ref.base
            )));
        }
        modules.push(LoadedModule {
            image: Arc::clone(binary),
            base: module_ref.base,
        });
    }

    // 3. File-backed reconstruction for text with no dumped page
    //    (stock-CRIU behaviour). A module whose every text page is in
    //    the image needs none of its linked bytes, so it is not linked
    //    at all, and its imports need not resolve: CRIU maps dumped
    //    pages without re-linking them.
    for module in &modules {
        if image.exec_pages_dumped && text_pages_dumped(image, module) {
            continue;
        }
        let segments = materialize(&module.image, module.base, |symbol| {
            registry.resolve(&image.core.modules, symbol)
        })
        .map_err(link_error)?;
        for segment in &segments {
            if !segment.perms.exec {
                continue; // only text is file-backed in our model
            }
            let mut offset = 0usize;
            while offset < segment.bytes.len() {
                let page_base = segment.vaddr + offset as u64;
                let chunk = (PAGE_LEN.min(segment.bytes.len() - offset)).max(1);
                // With stock CRIU options the page-fault handler always
                // reconstructs file-backed text from the binary; dumped
                // copies of text pages (if any) are irrelevant.
                if !image.exec_pages_dumped || !image.pages.contains_key(&page_base) {
                    proc.mem
                        .write_unchecked(page_base, &segment.bytes[offset..offset + chunk]);
                }
                offset += PAGE_LEN;
            }
        }
    }
    proc.modules = modules;

    // 4. Dumped pages, installed as shared frames: no byte copy until a
    //    write CoW-faults the page private.
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::CowMaterialize) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::CowMaterialize,
        ));
    }
    proc.mem.install_shared_pages(
        image
            .pages
            .iter()
            .filter(|&(&page_base, _)| !skip_undumped_text(image, page_base))
            .map(|(&page_base, frame)| (page_base, frame.clone())),
    );

    // 5. Registers and signal state.
    proc.cpu = CpuState {
        regs: image.core.regs,
        pc: image.core.pc,
        flags: Flags::from_bits(image.core.flags_bits),
    };
    proc.sigactions = image.core.sigactions;
    proc.signal_depth = image.core.signal_depth;
    proc.insns_retired = image.core.insns_retired;
    proc.syscall_filter = image.core.syscall_filter;

    // 6. Descriptors. Network side effects (listener registration,
    //    leaving repair mode) are recorded for the commit phase, not
    //    applied here.
    let mut fds = FdTable::new();
    let mut listeners = Vec::new();
    let mut conn_ids = Vec::new();
    for (fd, entry) in &image.files.fds {
        let desc = match entry {
            FdImage::Console => FileDesc::Console,
            FdImage::File { path, pos } => FileDesc::File {
                file: VfsFile {
                    path: path.clone(),
                    contents: kernel.vfs_contents(path).unwrap_or_default(),
                },
                pos: *pos,
            },
            FdImage::Socket => FileDesc::Socket,
            FdImage::Listener { port } => {
                listeners.push(*port);
                FileDesc::Listener { port: *port }
            }
            FdImage::Conn { id } => {
                conn_ids.push(*id);
                FileDesc::Conn(*id)
            }
        };
        fds.insert(*fd, desc);
    }
    proc.fds = fds;

    Ok(StagedProcess {
        proc,
        listeners,
        conns: conn_ids,
    })
}

/// Whether `image` holds every page of `module`'s text, the only bytes
/// the restore could take from a link of the module.
fn text_pages_dumped(image: &ProcessImage, module: &LoadedModule) -> bool {
    let text_len = module.image.text.len() as u64;
    (0..text_len)
        .step_by(PAGE_LEN)
        .all(|offset| image.pages.contains_key(&(module.base + offset)))
}

/// Stock-CRIU text handling: with `exec_pages_dumped` off, executable
/// pages always come from the binary, never from the dump.
fn skip_undumped_text(image: &ProcessImage, page_base: u64) -> bool {
    if image.exec_pages_dumped {
        return false;
    }
    image
        .mm
        .vma_at(page_base)
        .map(|vma| vma.perms.exec)
        .unwrap_or(false)
}

/// A multi-process restore staged as a transaction:
/// [`CheckpointStore::stage_restore`](crate::CheckpointStore::stage_restore)
/// builds every process without touching the kernel, `commit` swaps
/// them in all-or-nothing.
///
/// This is the fix for the classic restore hazard — removing the
/// original processes first and only then discovering that one of the
/// replacement images cannot be restored, leaving the application dead.
/// With the transaction, any failure while staging leaves the kernel
/// untouched, and any failure during
/// [`commit`](RestoreTransaction::commit) rolls back the processes
/// already swapped, restoring the originals bit-identically.
#[derive(Debug)]
pub struct RestoreTransaction {
    staged: Vec<StagedProcess>,
}

/// Receipt for a committed [`RestoreTransaction`], holding everything
/// needed to reverse it if a *later* step of the caller's own
/// transaction (e.g. persisting the checkpoint baseline) fails.
#[derive(Debug)]
pub struct CommittedRestore {
    /// The original processes displaced by the commit, with `None` for
    /// pids that had no original (a fresh restore, not a swap).
    originals: Vec<(Pid, Option<Process>)>,
    /// Pids inserted by the commit.
    restored: Vec<Pid>,
    /// Listening ports the commit created (as opposed to ports that were
    /// already listening).
    new_listeners: Vec<u16>,
}

impl CommittedRestore {
    /// The restored pids, in checkpoint order.
    pub fn pids(&self) -> &[Pid] {
        &self.restored
    }

    /// The original process the commit displaced at `pid`, if any: for a
    /// customize cycle, the process as it was before its edit.
    pub fn original(&self, pid: Pid) -> Option<&Process> {
        self.originals
            .iter()
            .find(|(of, _)| *of == pid)
            .and_then(|(_, original)| original.as_ref())
    }

    /// Reverses the commit: removes the restored processes, re-inserts
    /// the displaced originals with their pids' class and trap counter,
    /// and closes listeners the commit created. Connections are
    /// deliberately left established — the rollback path re-enters/leaves
    /// repair mode as part of its own protocol.
    pub fn undo(self, kernel: &mut Kernel) {
        for (pid, original) in self.originals {
            let restored = kernel.remove_process(pid);
            if let Some(mut proc) = original {
                if let Ok(restored) = &restored {
                    proc.sched = restored.sched;
                }
                // The original keeps its block cache: its address space
                // (and the page generations every cached block is
                // validated against) is swapped back with it, so each
                // entry is exactly as valid as it was at dump time.
                // This is what makes rollback's version swap free — the
                // pristine decode re-dispatches without a single
                // re-decode (DESIGN §11).
                let _ = kernel.insert_process(proc);
            }
        }
        for port in &self.new_listeners {
            kernel.close_listener(*port);
        }
    }

    /// Carries each displaced original's block cache into its live
    /// replacement ([`BlockCache::carry_into`], which also seeds the
    /// generations of the pages the carried entries decode from) — the
    /// customize commit's alternative to a cold cache. Fresh restores
    /// (no displaced original) keep the empty cache they were built
    /// with.
    ///
    /// [`BlockCache::carry_into`]: dynacut_vm::BlockCache::carry_into
    pub fn carry_block_caches(&self, kernel: &mut Kernel) {
        for (pid, original) in &self.originals {
            let Some(original) = original else { continue };
            if let Ok(replacement) = kernel.process_mut(*pid) {
                BlockCache::carry_into(original, replacement);
            }
        }
    }
}

impl RestoreTransaction {
    /// Wraps already-built staged processes; the store's staging methods
    /// build them and only need the commit machinery.
    pub(crate) fn from_staged(staged: Vec<StagedProcess>) -> Self {
        RestoreTransaction { staged }
    }

    /// Pids this transaction will restore, in checkpoint order.
    pub fn pids(&self) -> Vec<Pid> {
        self.staged.iter().map(|staged| staged.proc.pid).collect()
    }

    /// Swaps every staged process in for its original (if any), then
    /// applies the network side effects: listeners are (re-)registered
    /// and repaired connections re-established.
    ///
    /// # Errors
    ///
    /// Fails if a pid slot cannot be swapped; every process swapped so
    /// far is rolled back first, so the kernel is left exactly as it was
    /// before the call.
    pub fn commit(self, kernel: &mut Kernel) -> Result<CommittedRestore, CriuError> {
        let mut originals: Vec<(Pid, Option<Process>)> = Vec::with_capacity(self.staged.len());
        let mut restored: Vec<Pid> = Vec::with_capacity(self.staged.len());
        // Each process moves into the kernel; its network side effects
        // are taken first and applied once every process is in place.
        let mut effects: Vec<(Vec<u16>, Vec<dynacut_vm::ConnId>)> =
            Vec::with_capacity(self.staged.len());
        for staged in self.staged {
            let StagedProcess {
                proc: mut replacement,
                listeners,
                conns,
            } = staged;
            effects.push((listeners, conns));
            let pid = replacement.pid;
            let injected = dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::RestoreCommit);
            let original = kernel.remove_process(pid).ok();
            // Keeps the pid's class and trap counter (removal reset the rest).
            if let Some(original) = &original {
                replacement.sched = original.sched;
            }
            let result = if injected {
                Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::RestoreCommit,
                ))
            } else {
                // A restored process starts with a cold block cache
                // because `build_process` builds it new: its text may hold
                // planted trap bytes, wiped blocks, or re-enabled code,
                // and no block decoded before the swap may survive it.
                // Only the customize commit carries entries in, afterwards
                // (`CommittedRestore::carry_block_caches`, DESIGN §11).
                debug_assert!(replacement.block_cache.is_empty());
                kernel.insert_process(replacement).map_err(CriuError::from)
            };
            match result {
                Ok(()) => {
                    kernel.record_flight(Some(pid), dynacut_vm::EventKind::ProcessRestored);
                    originals.push((pid, original));
                    restored.push(pid);
                }
                Err(err) => {
                    // Roll back: this process's original, then every
                    // earlier swap, newest first.
                    if let Some(proc) = original {
                        let _ = kernel.insert_process(proc);
                    }
                    for (pid, original) in originals.into_iter().rev() {
                        let _ = kernel.remove_process(pid);
                        if let Some(proc) = original {
                            let _ = kernel.insert_process(proc);
                        }
                    }
                    return Err(err);
                }
            }
        }

        // Network side effects only after every process is in place.
        let mut new_listeners = Vec::new();
        for (listeners, conns) in &effects {
            for &port in listeners {
                if !kernel.is_listening(port) {
                    new_listeners.push(port);
                }
                kernel.restore_listener(port);
            }
            kernel.unrepair_connections(conns);
        }

        Ok(CommittedRestore {
            originals,
            restored,
            new_listeners,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dump, CheckpointStore, DumpOptions};
    use dynacut_isa::{Assembler, Insn, Reg, TRAP_OPCODE};
    use dynacut_obj::{ModuleBuilder, ObjectKind};
    use dynacut_vm::{Counter, LoadSpec, SchedClass, EXE_BASE};

    /// A loop on the first text page whose body calls a function on the
    /// second, so its blocks decode from both.
    fn two_page_loop() -> Image {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.label("top");
        asm.push(Insn::Addi(Reg::R1, 1));
        asm.call("far");
        asm.jmp("top");
        asm.align(PAGE_SIZE);
        asm.func("far");
        asm.push(Insn::Addi(Reg::R2, 1));
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("two_page_loop", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.entry("_start");
        builder.link(&[]).unwrap()
    }

    /// The carry seeds every page a carried entry decodes from, and no
    /// other: the first text page, rewritten, one past the original's
    /// generation; the second, unchanged, at the original's; and a page
    /// the original registered with no block over it, not at all.
    #[test]
    fn carry_seeds_every_page_a_carried_entry_spans() {
        let spec = LoadSpec::exe_only(two_page_loop());
        let mut registry = ModuleRegistry::new();
        registry.insert(Arc::clone(&spec.exe));
        let mut kernel = Kernel::new();
        let pid = kernel.spawn(&spec).unwrap();
        kernel.run_for(100_000);
        let stray = EXE_BASE + 8 * PAGE_SIZE;
        kernel.process_mut(pid).unwrap().mem.note_code_page(stray);
        kernel.freeze(pid).unwrap();
        let mut image = dump(&mut kernel, pid, &DumpOptions::default()).unwrap();
        // The padding's last byte: the first page changes, and no
        // instruction the loop runs.
        image
            .write_mem(EXE_BASE + PAGE_SIZE - 1, &[TRAP_OPCODE])
            .unwrap();
        let mut store = CheckpointStore::new();
        let id = store
            .put_full(&CheckpointImage {
                procs: vec![image],
                time_ns: 0,
            })
            .unwrap();
        let committed = store
            .stage_restore(&kernel, id, &registry)
            .unwrap()
            .commit(&mut kernel)
            .unwrap();
        committed.carry_block_caches(&mut kernel);

        let original = committed.original(pid).unwrap();
        let replacement = kernel.process(pid).unwrap();
        let mut spanned: Vec<u64> = replacement.block_cache.code_pages().collect();
        spanned.sort_unstable();
        spanned.dedup();
        assert_eq!(spanned, [EXE_BASE, EXE_BASE + PAGE_SIZE]);
        let gen = |base| original.mem.code_page_gen(base);
        assert_eq!(
            replacement.mem.code_pages().collect::<Vec<_>>(),
            [
                (EXE_BASE, gen(EXE_BASE) + 1),
                (EXE_BASE + PAGE_SIZE, gen(EXE_BASE + PAGE_SIZE)),
            ],
            "the rewritten page is seeded past its generation, the other \
             keeps it, and the stray page is not seeded"
        );
        assert!(original.mem.code_pages().any(|(base, _)| base == stray));
        assert_eq!(
            replacement.block_cache.len(),
            original.block_cache.len(),
            "the original ran one version, all of it carried"
        );
    }

    /// A restore swap keeps the pid's class and trap counter: the
    /// replacement takes them from the original it displaces, and an
    /// undo gives the original back what its pid holds by then. Without
    /// the carry the replacement would start `Normal` under
    /// `trap_hits.none`, and a canary's traps in a session's second
    /// rollout would count under `none` instead of `verify`.
    #[test]
    fn restore_swap_keeps_class_and_trap_counter() {
        let spec = LoadSpec::exe_only(two_page_loop());
        let mut registry = ModuleRegistry::new();
        registry.insert(Arc::clone(&spec.exe));
        let mut kernel = Kernel::new();
        let pid = kernel.spawn(&spec).unwrap();
        kernel.run_for(10_000);
        kernel.set_sched_class(pid, SchedClass::Background);
        kernel.set_trap_policy(pid, Counter::TrapHitsVerify);
        kernel.freeze(pid).unwrap();
        let image = dump(&mut kernel, pid, &DumpOptions::default()).unwrap();
        let mut store = CheckpointStore::new();
        let id = store
            .put_full(&CheckpointImage {
                procs: vec![image],
                time_ns: 0,
            })
            .unwrap();
        let committed = store
            .stage_restore(&kernel, id, &registry)
            .unwrap()
            .commit(&mut kernel)
            .unwrap();
        let record = kernel.process(pid).unwrap().sched;
        assert_eq!(record.class, SchedClass::Background);
        assert_eq!(record.trap_hits, Counter::TrapHitsVerify);

        kernel.set_sched_class(pid, SchedClass::Normal);
        kernel.set_trap_policy(pid, Counter::TrapHitsRedirect);
        committed.undo(&mut kernel);
        let record = kernel.process(pid).unwrap().sched;
        assert_eq!(record.class, SchedClass::Normal);
        assert_eq!(record.trap_hits, Counter::TrapHitsRedirect);
    }
}
