//! Promotion: a canary cycle's code changes, installed in place on the
//! other replicas of a rollout (DESIGN §13).
//!
//! A rollout's canary runs the one real customize cycle. Every other
//! replica then takes only what that cycle changed in code, never the
//! canary's process. [`CheckpointStore::canary_edit`] reads the canary's
//! stored entry once per rollout and tells its boot modules and new
//! libraries apart by the canary's pre-edit process, which the canary's
//! [`CommittedRestore`] still holds. [`CanaryEdit::promote`] then
//! patches each frozen replica group with:
//!
//! * the text pages of boot modules whose bytes differ from the canary's
//!   edited ones. A boot module is one the canary mapped before its
//!   edit, other than an injected library. These are the pages the edit
//!   changed, plus any the replica's history left different: a trap the
//!   canary healed before an edit that re-enables it is a page that
//!   edit leaves unchanged on the canary, but the replicas still carry
//!   the trap, and the new library no longer knows its address;
//! * the new injected library's VMAs and pages;
//! * the retirement of the replica's own injected libraries, unless a
//!   live signal frame may still return into one (`signal_depth > 0`);
//! * the canary's SIGTRAP disposition, syscall filter and module list.
//!
//! Every installed page is a shared frame out of the store, so no page
//! byte is copied. Registers, scheduler state, descriptors, heap, stack,
//! data pages and the block cache stay the replica's own; page
//! generations invalidate every cached block over a replaced page
//! (DESIGN §11). The [`Promotion`] receipt keeps what each replica
//! displaced, so [`Promotion::undo`] puts it back bit for bit — unless
//! the replica is inside a signal handler, which may run in the new
//! library by then: that replica keeps the promotion, the flight
//! journal records it, and the undo returns its pid.

use crate::images::{ProcessImage, VmaImage};
use crate::incremental::{CheckpointStore, CkptId};
use crate::restore::{CommittedRestore, ModuleRegistry};
use crate::CriuError;
use dynacut_obj::{checked_page_align, Perms, PAGE_LEN};
use dynacut_vm::{
    DisplacedPage, EventKind, Kernel, LoadedModule, Pid, ProcState, Process, SharedFrame,
    SigAction, Signal, VmError, Vma,
};
use std::sync::Arc;

/// The SIGTRAP slot of a sigaction table.
const SIGTRAP: usize = Signal::Sigtrap as usize;

/// What one canary process's cycle changed in code.
struct CodeEdit<'a> {
    /// The canary's boot modules, from its pre-edit process.
    boot: Vec<&'a LoadedModule>,
    /// The executable ranges inside boot modules, in address order. The
    /// edit left them as they were: a promotion replays no VMA change.
    boot_text: Vec<TextRange>,
    /// The canary's edited boot text pages, with their frames.
    text_pages: Vec<(u64, SharedFrame)>,
    /// Libraries the edit injected.
    libraries: Vec<LoadedModule>,
    /// Their VMAs, from the stored entry.
    library_vmas: Vec<&'a VmaImage>,
    /// Their populated pages, with their frames.
    library_pages: Vec<(u64, SharedFrame)>,
    /// The canary's SIGTRAP disposition after the edit.
    sigtrap: SigAction,
    /// The canary's syscall filter after the edit.
    syscall_filter: u64,
}

/// The code changes of a canary cycle, one per canary process: computed
/// once per rollout by [`CheckpointStore::canary_edit`], and promoted
/// onto each replica group by [`CanaryEdit::promote`].
pub struct CanaryEdit<'a> {
    edits: Vec<CodeEdit<'a>>,
    /// Tells an injected library's name.
    injected: fn(&str) -> bool,
}

/// What patching one replica changes beyond its pages, settled by the
/// checks before anything is touched.
struct ReplicaPlan {
    /// VMAs of the injected libraries the replica retires.
    retired_vmas: Vec<Vma>,
    /// The replica's module list after the promotion.
    modules: Vec<LoadedModule>,
}

/// `[start, end)` of executable memory with one set of permissions.
type TextRange = (u64, u64, Perms);

/// `[base, end)` of a module placed at `base`, or `None` if it runs past
/// the top of the address space.
pub(crate) fn module_range(base: u64, footprint: u64) -> Option<(u64, u64)> {
    let end = checked_page_align(footprint).and_then(|len| base.checked_add(len))?;
    Some((base, end))
}

/// The `(start, end, perms)` of each VMA.
fn vma_ranges(vmas: &[Vma]) -> impl Iterator<Item = TextRange> + '_ {
    vmas.iter().map(|vma| (vma.start, vma.end, vma.perms))
}

impl CodeEdit<'_> {
    /// Whether `[start, end)` lies inside a boot module.
    fn in_boot(&self, start: u64, end: u64) -> bool {
        self.boot.iter().any(|module| {
            module_range(module.base, module.image.footprint())
                .is_some_and(|(base, top)| start >= base && end <= top)
        })
    }

    /// Whether a replica's module is one of the canary's boot modules.
    fn is_boot(&self, module: &LoadedModule) -> bool {
        self.boot
            .iter()
            .any(|boot| boot.image.name == module.image.name && boot.base == module.base)
    }

    /// The executable ranges inside boot modules, out of `vmas` in
    /// address order. Adjacent VMAs with the same permissions merge: a
    /// verifier self-heal's `mprotect` pair splits a text VMA without
    /// changing what is executable.
    fn text_of(&self, vmas: impl Iterator<Item = TextRange>) -> Vec<TextRange> {
        let mut ranges: Vec<TextRange> = Vec::new();
        for (start, end, perms) in vmas {
            if !perms.exec || !self.in_boot(start, end) {
                continue;
            }
            match ranges.last_mut() {
                Some(last) if last.1 == start && last.2 == perms => last.1 = end,
                _ => ranges.push((start, end, perms)),
            }
        }
        ranges
    }

    /// Checks one replica against the canary: it maps the canary's boot
    /// modules at the same bases with the same executable ranges, no other
    /// module apart from injected libraries, and leaves the new
    /// libraries' range free once the libraries it retires are gone.
    /// Text bytes are not checked: a replaced page takes the canary's
    /// bytes whatever the replica's are, and a verifier self-heal
    /// legitimately rewrites a replica's text.
    fn check(&self, proc: &Process, injected: fn(&str) -> bool) -> Result<ReplicaPlan, CriuError> {
        let mismatch = |reason: String| CriuError::ReplicaMismatch {
            pid: proc.pid,
            reason,
        };
        if proc.state != ProcState::Frozen {
            return Err(CriuError::Vm(VmError::BadProcessState {
                pid: proc.pid,
                expected: "frozen",
            }));
        }
        if let Some(boot) = self.boot.iter().find(|boot| {
            !proc
                .modules
                .iter()
                .any(|module| module.image.name == boot.image.name && module.base == boot.base)
        }) {
            return Err(mismatch(format!(
                "boot module `{}` is not mapped at {:#x}",
                boot.image.name, boot.base
            )));
        }
        if self.text_of(vma_ranges(proc.mem.vmas())) != self.boot_text {
            return Err(mismatch(
                "its boot modules' executable ranges differ".into(),
            ));
        }
        if let Some(module) = proc
            .modules
            .iter()
            .find(|module| !self.is_boot(module) && !injected(&module.image.name))
        {
            return Err(mismatch(format!(
                "module `{}` is neither a boot module nor an injected library",
                module.image.name
            )));
        }
        // A live handler frame may still return into an injected
        // library, so a replica frozen inside one keeps them all.
        let retires =
            |module: &LoadedModule| proc.signal_depth == 0 && injected(&module.image.name);
        let mut retired_vmas = Vec::new();
        for module in proc.modules.iter().filter(|module| retires(module)) {
            let (base, end) = module_range(module.base, module.image.footprint())
                .ok_or_else(|| mismatch(format!("`{}` runs past the top", module.image.name)))?;
            for vma in proc.mem.vmas().iter().filter(|vma| vma.overlaps(base, end)) {
                if vma.start < base || vma.end > end {
                    return Err(mismatch(format!(
                        "VMA `{}` straddles injected library `{}`",
                        vma.name, module.image.name
                    )));
                }
                retired_vmas.push(vma.clone());
            }
        }
        for library in &self.library_vmas {
            if let Some(taken) =
                proc.mem.vmas().iter().find(|vma| {
                    vma.overlaps(library.start, library.end) && !retired_vmas.contains(vma)
                })
            {
                return Err(mismatch(format!(
                    "injected VMA `{}` at {:#x} overlaps its `{}`",
                    library.name, library.start, taken.name
                )));
            }
        }
        let modules = proc
            .modules
            .iter()
            .filter(|module| !retires(module))
            .chain(&self.libraries)
            .cloned()
            .collect();
        Ok(ReplicaPlan {
            retired_vmas,
            modules,
        })
    }

    /// Patches one checked replica, recording into `displaced` as it
    /// goes, so a failure part-way is undone from the same record.
    fn apply(
        &self,
        proc: &mut Process,
        plan: ReplicaPlan,
        displaced: &mut Displaced,
    ) -> Result<(), CriuError> {
        for vma in plan.retired_vmas {
            for page in (vma.start..vma.end).step_by(PAGE_LEN) {
                if proc.mem.page_present(page) {
                    displaced
                        .retired_pages
                        .push(proc.mem.replace_page(page, None));
                }
            }
            proc.mem.unmap(vma.start, vma.end - vma.start)?;
            displaced.retired_vmas.push(vma);
        }
        for vma in &self.library_vmas {
            proc.mem
                .map(vma.start, vma.end - vma.start, vma.perms, &vma.name)?;
            displaced.library_vmas.push((vma.start, vma.end));
        }
        // The libraries' range was free, so these installs displace
        // nothing: the undo's unmap drops them again.
        for (base, frame) in &self.library_pages {
            proc.mem.install_shared_page(*base, frame.clone());
        }
        for (base, frame) in &self.text_pages {
            // A page the replica took in an earlier promotion usually
            // shares the very frame the entry holds.
            let same = proc.mem.page_bytes(*base).is_some_and(|old| {
                std::ptr::eq(old.as_ptr(), frame.bytes().as_ptr()) || old == frame.bytes()
            });
            if !same {
                displaced
                    .text_pages
                    .push(proc.mem.replace_page(*base, Some(frame.clone())));
            }
        }
        proc.modules = plan.modules;
        proc.sigactions[SIGTRAP] = self.sigtrap;
        proc.syscall_filter = self.syscall_filter;
        Ok(())
    }
}

/// What a promotion displaced in one replica.
#[derive(Debug)]
struct Displaced {
    pid: Pid,
    modules: Vec<LoadedModule>,
    sigtrap: SigAction,
    syscall_filter: u64,
    /// Replaced boot text pages, with their dirty bits.
    text_pages: Vec<DisplacedPage>,
    /// `[start, end)` of each VMA the new libraries mapped.
    library_vmas: Vec<(u64, u64)>,
    /// The retired libraries' VMAs and populated pages.
    retired_vmas: Vec<Vma>,
    retired_pages: Vec<DisplacedPage>,
}

impl Displaced {
    /// An empty record of `proc`, holding its module list, SIGTRAP
    /// disposition and filter as they were.
    fn of(proc: &Process) -> Self {
        Displaced {
            pid: proc.pid,
            modules: proc.modules.clone(),
            sigtrap: proc.sigactions[SIGTRAP],
            syscall_filter: proc.syscall_filter,
            text_pages: Vec::new(),
            library_vmas: Vec::new(),
            retired_vmas: Vec::new(),
            retired_pages: Vec::new(),
        }
    }

    /// Puts back everything recorded, in the reverse order of
    /// [`CodeEdit::apply`].
    fn undo(self, proc: &mut Process) {
        proc.modules = self.modules;
        proc.sigactions[SIGTRAP] = self.sigtrap;
        proc.syscall_filter = self.syscall_filter;
        for page in self.text_pages.into_iter().rev() {
            proc.mem.restore_page(page);
        }
        // Each range was mapped by the promotion, and the retired ones
        // were unmapped by it, so neither call can fail.
        for (start, end) in self.library_vmas.into_iter().rev() {
            let _ = proc.mem.unmap(start, end - start);
        }
        for vma in &self.retired_vmas {
            let _ = proc
                .mem
                .map(vma.start, vma.end - vma.start, vma.perms, &vma.name);
        }
        for page in self.retired_pages.into_iter().rev() {
            proc.mem.restore_page(page);
        }
    }
}

/// Receipt of a [`CanaryEdit::promote`]: what each replica
/// displaced. Dropping it keeps the promotion; [`undo`](Promotion::undo)
/// reverses it, except on a replica inside a signal handler.
#[derive(Debug)]
pub struct Promotion {
    replicas: Vec<Displaced>,
}

impl Promotion {
    /// Puts every promoted replica back as it was before the promotion,
    /// newest first: its replaced text pages with their dirty bits, its
    /// retired libraries' VMAs and pages, its module list, SIGTRAP
    /// disposition and syscall filter; the new libraries are unmapped.
    /// What the replica did since (its registers, heap, stack and
    /// descriptors) is its own and stays. A replica that no longer
    /// exists is skipped, and so is one inside a signal handler: it may
    /// have trapped into the new library since, and unmapping that
    /// under its frame would kill it, so it keeps the promotion, and an
    /// [`EventKind::PromotionKept`] with its pid is journalled.
    ///
    /// Returns the pids that kept their promotion, newest first. Each
    /// still maps the new library and carries the canary's traps, so the
    /// caller keeps the library registered and gives the pid the
    /// canary's handler record.
    pub fn undo(self, kernel: &mut Kernel) -> Vec<Pid> {
        let mut kept = Vec::new();
        for replica in self.replicas.into_iter().rev() {
            let Ok(proc) = kernel.process_mut(replica.pid) else {
                continue;
            };
            if proc.signal_depth == 0 {
                replica.undo(proc);
            } else {
                kernel.record_flight(Some(replica.pid), EventKind::PromotionKept);
                kept.push(replica.pid);
            }
        }
        kept
    }
}

impl<'a> CodeEdit<'a> {
    /// The code changes of one canary process: its stored image `image`,
    /// its boot modules and new libraries told apart by its pre-edit
    /// process `before`.
    fn of(
        image: &'a ProcessImage,
        before: &'a Process,
        registry: &ModuleRegistry,
        injected: fn(&str) -> bool,
    ) -> Result<Self, CriuError> {
        let mut edit = CodeEdit {
            boot: before
                .modules
                .iter()
                .filter(|module| !injected(&module.image.name))
                .collect(),
            boot_text: Vec::new(),
            text_pages: Vec::new(),
            libraries: Vec::new(),
            library_vmas: Vec::new(),
            library_pages: Vec::new(),
            sigtrap: image.core.sigactions[SIGTRAP],
            syscall_filter: image.core.syscall_filter,
        };
        edit.boot_text = edit.text_of(vma_ranges(before.mem.vmas()));
        let edited = image
            .mm
            .vmas
            .iter()
            .map(|vma| (vma.start, vma.end, vma.perms));
        if edit.text_of(edited) != edit.boot_text {
            return Err(CriuError::Inconsistent(
                "the canary edit remapped boot text; a promotion replays no VMA change".into(),
            ));
        }
        for module in &image.core.modules {
            if before
                .modules
                .iter()
                .any(|old| old.image.name == module.name && old.base == module.base)
            {
                continue;
            }
            if !injected(&module.name) {
                return Err(CriuError::Inconsistent(format!(
                    "the canary edit mapped `{}`, which is not an injected library",
                    module.name
                )));
            }
            let binary = registry
                .get(&module.name)
                .ok_or_else(|| CriuError::UnknownModule(module.name.clone()))?;
            let (base, end) = module_range(module.base, binary.footprint()).ok_or_else(|| {
                CriuError::Inconsistent(format!("`{}` runs past the top", module.name))
            })?;
            edit.library_vmas.extend(
                image
                    .mm
                    .vmas
                    .iter()
                    .filter(|vma| vma.start >= base && vma.end <= end),
            );
            edit.libraries.push(LoadedModule {
                image: Arc::clone(binary),
                base,
            });
        }
        for (&base, frame) in &image.pages {
            if edit
                .boot_text
                .iter()
                .any(|&(start, end, _)| base >= start && base < end)
            {
                edit.text_pages.push((base, frame.clone()));
            } else if edit
                .library_vmas
                .iter()
                .any(|vma| base >= vma.start && base < vma.end)
            {
                edit.library_pages.push((base, frame.clone()));
            }
        }
        Ok(edit)
    }
}

impl CheckpointStore {
    /// The code changes of the canary cycle that stored `id`: for each
    /// of its processes, the text pages of boot modules, the new injected
    /// libraries' VMAs and pages, and the SIGTRAP disposition and syscall
    /// filter after the edit. A boot module is one the canary mapped
    /// before its edit, other than an injected library. `canary` is the
    /// canary's committed restore: its displaced pre-edit processes tell
    /// the boot modules and the new libraries apart. `injected` tells an
    /// injected library's name. A rollout computes this once, before its
    /// promotion wave, so no replica's freeze window pays for it.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is absent or
    /// released; [`CriuError::Inconsistent`] on a canary pid `canary`
    /// does not hold, or an edit that remapped boot text or mapped a
    /// module other than an injected library; or
    /// [`CriuError::UnknownModule`] if a new library's binary is missing
    /// from `registry`.
    pub fn canary_edit<'a>(
        &'a self,
        id: CkptId,
        canary: &'a CommittedRestore,
        registry: &ModuleRegistry,
        injected: fn(&str) -> bool,
    ) -> Result<CanaryEdit<'a>, CriuError> {
        let edits = self
            .get(id)?
            .image
            .procs
            .iter()
            .map(|image| {
                let before = canary.original(image.core.pid).ok_or_else(|| {
                    CriuError::Inconsistent(format!(
                        "the canary's restore displaced no {}",
                        image.core.pid
                    ))
                })?;
                CodeEdit::of(image, before, registry, injected)
            })
            .collect::<Result<_, _>>()?;
        Ok(CanaryEdit { edits, injected })
    }
}

impl CanaryEdit<'_> {
    /// Promotes the canary's code changes onto a replica group: each
    /// frozen `target` is patched in place with the text pages of boot
    /// modules whose bytes differ from the canary's edited ones, the new
    /// injected library's VMAs and pages, the retirement of its own
    /// injected libraries (unless it is inside a signal handler) and the
    /// canary's SIGTRAP disposition, syscall filter and module list.
    /// Everything else stays the replica's own: registers, scheduler
    /// state, descriptors, heap, stack, data pages and block cache (page
    /// generations invalidate the blocks over a replaced page).
    ///
    /// No page byte is copied ([`PageStore::copied_bytes`] does not
    /// move) and no store reference is taken: every installed page is a
    /// shared frame. Targets match the canary group one-to-one and must
    /// be frozen. Every target is checked before any is touched (see
    /// [`CriuError::ReplicaMismatch`]), and a failure part-way through
    /// is undone, so the targets are left as they were on every error
    /// path.
    ///
    /// Returns the [`Promotion`] receipt, so a rollout can
    /// [`undo`](Promotion::undo) the promotion if a later replica
    /// fails.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::Inconsistent`] on a group-size mismatch;
    /// [`CriuError::ReplicaMismatch`] if a target fails its checks; or
    /// [`CriuError::Vm`] if a target is missing or not frozen.
    ///
    /// [`PageStore::copied_bytes`]: crate::PageStore::copied_bytes
    pub fn promote(&self, kernel: &mut Kernel, targets: &[Pid]) -> Result<Promotion, CriuError> {
        if self.edits.len() != targets.len() {
            return Err(CriuError::Inconsistent(format!(
                "canary image holds {} processes but the target group has {}",
                self.edits.len(),
                targets.len()
            )));
        }
        let mut checked = Vec::with_capacity(targets.len());
        for (edit, &pid) in self.edits.iter().zip(targets) {
            if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::PromoteRestore) {
                return Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::PromoteRestore,
                ));
            }
            let plan = edit.check(kernel.process(pid)?, self.injected)?;
            checked.push((pid, edit, plan));
        }
        let mut promotion = Promotion {
            replicas: Vec::with_capacity(targets.len()),
        };
        for (pid, edit, plan) in checked {
            let proc = kernel.process_mut(pid)?;
            let mut displaced = Displaced::of(proc);
            let applied = edit.apply(proc, plan, &mut displaced);
            promotion.replicas.push(displaced);
            if let Err(err) = applied {
                // No replica has run since its patch, so each is undone
                // whatever its signal depth.
                for replica in promotion.replicas.into_iter().rev() {
                    if let Ok(proc) = kernel.process_mut(replica.pid) {
                        replica.undo(proc);
                    }
                }
                return Err(err);
            }
        }
        Ok(promotion)
    }
}
