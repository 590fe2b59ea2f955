//! Incremental (dirty-page) checkpointing and the checkpoint store.
//!
//! The paper's rewrite loop freezes the application for the whole
//! checkpoint→edit→restore round trip. Most of that window is spent
//! copying pages that have not changed since the previous checkpoint.
//! This module reproduces the CRIU mechanisms that shrink it:
//!
//! * **Pre-dump** ([`pre_dump`]): the two-phase protocol that copies the
//!   current page contents while the guest is still running, then
//!   freezes only to collect the *dirty residue* — the pages the
//!   kernel's dirty-page bitmap (the soft-dirty analogue,
//!   [`AddressSpace::dirty_pages`]) flags as written since the
//!   pre-copy — plus registers, sigactions and TCP-repair state.
//!   [`PreDump::complete`] reports how many page bytes actually had to
//!   be copied inside the freeze window.
//! * **The checkpoint store** ([`CheckpointStore`]): every checkpoint
//!   enters it whole, through [`CheckpointStore::put_full`], and is
//!   stored flat — the skeleton plus one content-addressed page key per
//!   pagemap entry. A page unchanged since an earlier checkpoint
//!   hash-hits that checkpoint's copy, so it costs a key and a
//!   refcount, not a byte copy: content addressing alone keeps
//!   repeated checkpoints as small as parent-linked incremental images
//!   would, with no chain to walk. Reading, restoring or promoting an
//!   entry touches only that entry, and releasing one leaves every
//!   other intact.
//!
//! Baseline contract: the dirty bitmap means "written since the last
//! [`AddressSpace::mark_clean`] sweep". [`pre_dump`] sweeps as part of
//! its atomic pre-copy; plain dumps do **not** sweep (a failed dump must
//! not invalidate the baseline) — callers establish a new baseline
//! explicitly with [`mark_clean_after_dump`] once a dump is safely
//! stored. From then on, every page that differs between that
//! checkpoint and the next dump of the process is in the bitmap, or
//! was absent from the baseline.
//!
//! [`AddressSpace::dirty_pages`]: dynacut_vm::AddressSpace::dirty_pages
//! [`AddressSpace::mark_clean`]: dynacut_vm::AddressSpace::mark_clean

use crate::dump::{dump_many, DumpOptions};
use crate::images::*;
use crate::page_store::{PageStore, SharedPages};
use crate::restore::{build_process, ModuleRegistry, RestoreTransaction, StagedProcess};
use crate::CriuError;
use dynacut_obj::PAGE_SIZE;
use dynacut_vm::{Kernel, Pid};
use std::collections::BTreeMap;

/// Identifier of a checkpoint in a [`CheckpointStore`] (sequential).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CkptId(pub u64);

impl std::fmt::Display for CkptId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ckpt-{}", self.0)
    }
}

/// Sweeps the dirty bitmap of each process, establishing the checkpoint
/// just taken as the clean baseline the bitmap is measured against.
/// Call this only after the dump is safely stored — a dump that failed
/// (or was discarded) must leave the old baseline intact.
///
/// # Errors
///
/// Fails if a process does not exist.
pub fn mark_clean_after_dump(kernel: &mut Kernel, pids: &[Pid]) -> Result<(), CriuError> {
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::MarkClean) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::MarkClean,
        ));
    }
    for &pid in pids {
        kernel.process_mut(pid)?.mem.mark_clean();
    }
    Ok(())
}

/// Page contents copied by [`pre_dump`] while the guest was running.
#[derive(Debug, Clone)]
pub struct PreDump {
    snapshots: BTreeMap<Pid, BTreeMap<u64, Vec<u8>>>,
}

/// How [`PreDump::complete`] accounts a checkpoint's page bytes: left
/// for the freeze, or served from the pre-copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreDumpStats {
    /// Bytes a pre-dump protocol leaves for the freeze: the dirty
    /// residue plus pages populated after the pre-copy. A modeled freeze
    /// window charges these bytes (registers/sigactions/TCP state are
    /// O(1)); [`PreDump::complete`] itself still copies every page
    /// under the freeze.
    pub frozen_page_bytes: usize,
    /// Bytes served from the pre-copy, i.e. moved while the guest ran.
    pub prewritten_page_bytes: usize,
}

impl PreDumpStats {
    /// Total page payload of the completed dump.
    pub fn total_page_bytes(&self) -> usize {
        self.frozen_page_bytes + self.prewritten_page_bytes
    }
}

/// Phase one of the two-phase dump: copies every populated page of every
/// process **without requiring a freeze**, then sweeps the dirty bitmap
/// so [`PreDump::complete`] can identify the residue written afterwards.
///
/// # Errors
///
/// Fails if a process does not exist.
pub fn pre_dump(kernel: &mut Kernel, pids: &[Pid]) -> Result<PreDump, CriuError> {
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::PreDump) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::PreDump,
        ));
    }
    let mut snapshots = BTreeMap::new();
    for &pid in pids {
        let mem = &mut kernel.process_mut(pid)?.mem;
        let pages: BTreeMap<u64, Vec<u8>> = mem
            .populated_pages()
            .map(|(base, bytes)| (base, bytes.to_vec()))
            .collect();
        mem.mark_clean();
        let page_bytes = (pages.len() * PAGE_SIZE as usize) as u64;
        snapshots.insert(pid, pages);
        kernel.record_flight(
            Some(pid),
            dynacut_vm::EventKind::ProcessPreDumped { page_bytes },
        );
    }
    Ok(PreDump { snapshots })
}

impl PreDump {
    /// Total bytes copied during the pre-dump phase.
    pub fn page_bytes(&self) -> usize {
        self.snapshots.values().map(|pages| pages.len() * PAGE_SIZE as usize).sum()
    }

    /// Phase two: with the processes now frozen, produces a
    /// [`CheckpointImage`] bit-identical to a plain [`dump_many`] at this
    /// instant. It runs that full dump, copying every page while the
    /// processes are frozen, and counts as frozen only the dirty residue:
    /// the bytes a pre-dump protocol leaves for the freeze, which a
    /// modeled freeze window charges. Returns the checkpoint plus the
    /// phase accounting.
    ///
    /// # Errors
    ///
    /// Fails if any process is missing or not frozen.
    pub fn complete(
        &self,
        kernel: &mut Kernel,
        pids: &[Pid],
        options: &DumpOptions,
    ) -> Result<(CheckpointImage, PreDumpStats), CriuError> {
        let checkpoint = dump_many(kernel, pids, options)?;
        let page = PAGE_SIZE as usize;
        let mut stats = PreDumpStats::default();
        for image in &checkpoint.procs {
            let mem = &kernel.process(image.core.pid)?.mem;
            let snapshot = self.snapshots.get(&image.core.pid);
            for (index, &base) in image.pagemap.pages.iter().enumerate() {
                let prewritten = !mem.page_dirty(base)
                    && snapshot.and_then(|pages| pages.get(&base)).is_some();
                if prewritten {
                    // The clean page the freeze-window copy skips must
                    // match what the pre-dump copied — the invariant the
                    // dirty bitmap guarantees.
                    debug_assert_eq!(
                        snapshot.and_then(|pages| pages.get(&base)).map(|b| &b[..]),
                        Some(&image.pages.bytes[index * page..(index + 1) * page]),
                    );
                    stats.prewritten_page_bytes += page;
                } else {
                    stats.frozen_page_bytes += page;
                }
            }
        }
        Ok((checkpoint, stats))
    }
}

/// One entry of a [`CheckpointStore`]: the checkpoint's *skeleton*
/// (registers, VMAs, pagemaps, descriptors, TCP state — everything but
/// the page bytes) plus one [`SharedPages`] reference set per process,
/// one key per pagemap entry. The page payload itself lives,
/// deduplicated, in the store's [`PageStore`]. Every entry is
/// self-contained: none refers to another.
#[derive(Debug, Clone)]
pub(crate) struct StoredCheckpoint {
    /// The checkpoint with every process's page payload dropped.
    pub(crate) skeleton: CheckpointImage,
    /// Interned page payload, one entry per process, in `procs` order.
    pub(crate) pages: Vec<SharedPages>,
}

impl StoredCheckpoint {
    /// Logical page payload of this entry — what a store without content
    /// addressing would hold for it.
    fn pages_bytes(&self) -> usize {
        self.pages.iter().map(SharedPages::pages_bytes).sum()
    }
}

/// The tmpfs-like checkpoint store, backed by a content-addressed
/// [`PageStore`]: every checkpoint written into the store interns its
/// page payload (N processes running the same binary share one copy of
/// every identical page; repeated cycles dedup against prior
/// checkpoints), and every materialization reads back through it
/// bit-identically.
///
/// [`put_full`](CheckpointStore::put_full) is the only way pages enter
/// the store, so the refcount rules live here alone: an entry holds one
/// reference per page, taken when it is put and dropped by
/// [`release`]. Entries get sequential [`CkptId`]s and are **flat**:
/// each holds one page key per pagemap entry, so reading one never
/// touches another, and the pages it shares with earlier entries cost a
/// key and a refcount, not a byte copy. Only live entries are kept;
/// ids are never reused, and a released id fails with
/// [`CriuError::MissingParent`].
///
/// [`release`]: CheckpointStore::release
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    entries: BTreeMap<CkptId, StoredCheckpoint>,
    /// The id the next [`put_full`](CheckpointStore::put_full) assigns.
    next_id: u64,
    pages: PageStore,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a checkpoint, interning its page payload, and returns its
    /// id. The image is only read: the entry keeps its skeleton and page
    /// keys, and the caller keeps the payload buffer.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::BadImage`] if a process's payload is not
    /// exactly one page per pagemap entry or a VMA ends before it starts
    /// (no page ref is taken), or [`CriuError::PageCollision`] if any
    /// page's content key is already held by different bytes;
    /// references taken for earlier processes are released again and
    /// nothing is stored.
    pub fn put_full(&mut self, image: &CheckpointImage) -> Result<CkptId, CriuError> {
        for proc in &image.procs {
            check_payload(&proc.pages, &proc.pagemap)?;
            check_vmas(&proc.mm)?;
        }
        let mut pages = Vec::with_capacity(image.procs.len());
        for proc in &image.procs {
            match SharedPages::intern(&mut self.pages, &proc.pages) {
                Ok(shared) => pages.push(shared),
                Err(err) => {
                    for shared in pages.iter().rev() {
                        // These refs were just taken, so the release
                        // cannot miss; the collision is the error.
                        let _ = shared.release(&mut self.pages);
                    }
                    return Err(err);
                }
            }
        }
        // The entry keeps everything but the payload, whose pages now
        // live in the page store.
        let skeleton = CheckpointImage {
            procs: image
                .procs
                .iter()
                .map(|proc| ProcessImage {
                    core: proc.core.clone(),
                    mm: proc.mm.clone(),
                    pagemap: proc.pagemap.clone(),
                    pages: PagesImage::default(),
                    files: proc.files.clone(),
                    tcp: proc.tcp.clone(),
                    exec_pages_dumped: proc.exec_pages_dumped,
                })
                .collect(),
            time_ns: image.time_ns,
        };
        let id = CkptId(self.next_id);
        self.next_id += 1;
        self.entries
            .insert(id, StoredCheckpoint { skeleton, pages });
        Ok(id)
    }

    /// Looks up a live entry.
    pub(crate) fn get(&self, id: CkptId) -> Result<&StoredCheckpoint, CriuError> {
        self.entries.get(&id).ok_or(CriuError::MissingParent(id))
    }

    /// Releases a checkpoint: drops its entry and one page-store
    /// reference per page it interned; bytes no other checkpoint shares
    /// are freed. Every other entry stays intact. Ids are never reused,
    /// so later calls naming this id fail with
    /// [`CriuError::MissingParent`].
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if the id is absent or
    /// already released, or [`CriuError::UnknownPage`] if one of its page
    /// references was already gone from the page store (every other
    /// reference is still released).
    pub fn release(&mut self, id: CkptId) -> Result<(), CriuError> {
        let entry = self
            .entries
            .remove(&id)
            .ok_or(CriuError::MissingParent(id))?;
        let mut first_miss = None;
        for shared in &entry.pages {
            if let Err(err) = shared.release(&mut self.pages) {
                first_miss.get_or_insert(err);
            }
        }
        match first_miss {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total **logical** page payload across live entries — each entry's
    /// full page list, what a store without content addressing would
    /// hold. The physically held bytes are [`unique_pages_bytes`].
    ///
    /// [`unique_pages_bytes`]: CheckpointStore::unique_pages_bytes
    pub fn stored_pages_bytes(&self) -> usize {
        self.entries
            .values()
            .map(StoredCheckpoint::pages_bytes)
            .sum()
    }

    /// Page bytes of checkpoint `id` that are absent from, or differ in,
    /// checkpoint `since` (processes matched by pid): the pages `id` does
    /// not share with `since`. Only keys are compared — [`PageStore::intern`] refuses collisions, so two live
    /// pages with one key hold the same bytes.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if either id is absent or
    /// released.
    pub fn changed_pages_bytes(&self, since: CkptId, id: CkptId) -> Result<usize, CriuError> {
        let before = self.get(since)?;
        let after = self.get(id)?;
        let mut changed = 0;
        for (proc, shared) in after.skeleton.procs.iter().zip(&after.pages) {
            let old = before
                .skeleton
                .procs
                .iter()
                .zip(&before.pages)
                .find(|(old, _)| old.core.pid == proc.core.pid);
            for (base, key) in proc.pagemap.pages.iter().zip(shared.keys()) {
                let same = old.is_some_and(|(old, old_shared)| {
                    old.pagemap
                        .pages
                        .binary_search(base)
                        .is_ok_and(|index| old_shared.keys()[index] == *key)
                });
                if !same {
                    changed += PAGE_SIZE as usize;
                }
            }
        }
        Ok(changed)
    }

    /// The content-addressed page store backing this checkpoint store.
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Physically held page bytes: one copy per distinct page content.
    pub fn unique_pages_bytes(&self) -> usize {
        self.pages.unique_bytes()
    }

    /// Page bytes written through the store (references × page size).
    pub fn logical_pages_bytes(&self) -> usize {
        self.pages.logical_bytes()
    }

    /// Page bytes deduplicated away: `logical − unique`.
    pub fn shared_pages_bytes(&self) -> usize {
        self.pages.shared_bytes()
    }

    /// Dedup win of the content addressing: `logical / unique` (1.0 when
    /// empty).
    pub fn dedup_ratio(&self) -> f64 {
        self.pages.dedup_ratio()
    }

    /// Materializes the checkpoint `id`: its skeleton with every page
    /// payload read back from the content-addressed store. Bit-identical
    /// to the image originally written in.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is absent or
    /// released.
    pub fn materialize(&self, id: CkptId) -> Result<CheckpointImage, CriuError> {
        let entry = self.get(id)?;
        let mut image = entry.skeleton.clone();
        for (proc, shared) in image.procs.iter_mut().zip(&entry.pages) {
            proc.pages = shared.materialize(&self.pages)?;
        }
        Ok(image)
    }

    /// Stages a restore of the checkpoint `id` without mutating the
    /// kernel: every process is built from the entry's skeleton, each dumped page backed by a
    /// [`SharedFrame`](dynacut_vm::SharedFrame) handle straight out of
    /// the content-addressed store. No page byte is copied and no store
    /// reference is taken ([`PageStore::copied_bytes`] and the refcounts
    /// do not move): the staged processes keep the frames alive through
    /// their own handles, and the first guest write to each page
    /// copy-on-writes it private. This is the one way a restore is
    /// staged; [`RestoreTransaction::commit`] swaps the result in.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is absent or
    /// released, or propagates the first build failure; the kernel is
    /// untouched either way.
    pub fn stage_restore(
        &self,
        kernel: &Kernel,
        id: CkptId,
        registry: &ModuleRegistry,
    ) -> Result<RestoreTransaction, CriuError> {
        let entry = self.get(id)?;
        let mut staged: Vec<StagedProcess> = Vec::with_capacity(entry.pages.len());
        for (image, shared) in entry.skeleton.procs.iter().zip(&entry.pages) {
            if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::RestoreHandles) {
                return Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::RestoreHandles,
                ));
            }
            staged.push(build_process(
                kernel,
                image,
                registry,
                shared.keys(),
                &self.pages,
            )?);
        }
        Ok(RestoreTransaction::from_staged(staged))
    }

    /// Restores the checkpoint `id` **zero-copy**: the restore staged by
    /// [`stage_restore`](CheckpointStore::stage_restore), committed. No
    /// page byte is copied by the restore itself. Re-dumping the
    /// restored processes gives back
    /// [`materialize`](CheckpointStore::materialize)`(id)` byte for byte.
    ///
    /// The commit is transactional ([`RestoreTransaction::commit`]) and
    /// flushes every restored process's block cache (the commit's choke
    /// point), so no decoded block survives the swap.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is absent or
    /// released, or propagates build/commit failures (kernel untouched
    /// or rolled back).
    pub fn restore(
        &self,
        kernel: &mut Kernel,
        id: CkptId,
        registry: &ModuleRegistry,
    ) -> Result<Vec<Pid>, CriuError> {
        let committed = self.stage_restore(kernel, id, registry)?.commit(kernel)?;
        Ok(committed.pids().to_vec())
    }
}

/// Checks that a payload holds exactly one whole page per entry of the
/// pagemap it ships with — an invariant every zero-copy restore of the
/// stored entry relies on (a short page would reach the guest as a
/// partial frame).
fn check_payload(pages: &PagesImage, listed: &PagemapImage) -> Result<(), CriuError> {
    let expected = listed.pages.len() * PAGE_SIZE as usize;
    if pages.bytes.len() != expected {
        return Err(CriuError::BadImage(format!(
            "pages.img holds {} bytes but {} pages ({expected} bytes) are listed",
            pages.bytes.len(),
            listed.pages.len()
        )));
    }
    Ok(())
}

/// Checks that no VMA ends before it starts — the other invariant a
/// restore of the stored entry relies on: it maps `end - start` bytes
/// per VMA.
fn check_vmas(mm: &MmImage) -> Result<(), CriuError> {
    match mm.vmas.iter().find(|vma| vma.end < vma.start) {
        Some(vma) => Err(CriuError::BadImage(format!(
            "vma `{}` ends at {:#x}, before its start {:#x}",
            vma.name, vma.end, vma.start
        ))),
        None => Ok(()),
    }
}
