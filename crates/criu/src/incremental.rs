//! Incremental (dirty-page) checkpointing.
//!
//! The paper's rewrite loop freezes the application for the whole
//! checkpoint→edit→restore round trip. Most of that window is spent
//! copying pages that have not changed since the previous checkpoint.
//! This module reproduces the two CRIU mechanisms that shrink it:
//!
//! * **Incremental dumps** ([`dump_incremental`]): using the kernel's
//!   dirty-page bitmap (the soft-dirty analogue,
//!   [`AddressSpace::dirty_pages`]), a dump emits a [`DeltaImage`] that
//!   references a parent checkpoint and carries page *data* only for the
//!   pages written since that parent was taken. A delta chain
//!   materializes ([`materialize_chain`]) to an image **bit-identical**
//!   to the full dump taken at the same instant.
//! * **Pre-dump** ([`pre_dump`]): the two-phase protocol that copies the
//!   current page contents while the guest is still running, then
//!   freezes only to collect the *dirty residue* — pages written between
//!   the pre-copy and the freeze — plus registers, sigactions and
//!   TCP-repair state. [`PreDump::complete`] reports how many page bytes
//!   actually had to be copied inside the freeze window.
//!
//! Baseline contract: the dirty bitmap means "written since the last
//! [`AddressSpace::mark_clean`] sweep". [`pre_dump`] sweeps as part of
//! its atomic pre-copy; plain dumps do **not** sweep (a failed dump must
//! not invalidate the baseline) — callers establish a new baseline
//! explicitly with [`mark_clean_after_dump`] once a dump is safely
//! stored. [`dump_incremental`]'s `parent` must be the checkpoint that
//! established the current baseline, otherwise the delta under-reports.
//!
//! [`AddressSpace::dirty_pages`]: dynacut_vm::AddressSpace::dirty_pages
//! [`AddressSpace::mark_clean`]: dynacut_vm::AddressSpace::mark_clean

use crate::dump::{dump, dump_many, DumpOptions};
use crate::images::*;
use crate::page_store::{PageKey, PageStore, SharedPages};
use crate::restore::{build_process, RestoreTransaction, StagedProcess};
use crate::CriuError;
use dynacut_obj::PAGE_SIZE;
use dynacut_vm::{Kernel, Pid};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a checkpoint in a [`CheckpointStore`] (sequential).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CkptId(pub u64);

impl std::fmt::Display for CkptId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ckpt-{}", self.0)
    }
}

/// The per-process part of a [`DeltaImage`].
///
/// Everything except page *data* is recorded in full (registers, VMAs,
/// descriptors, TCP state are tiny next to memory). The `pagemap` lists
/// **all** populated pages at delta time — so pages dropped or unmapped
/// since the parent disappear on materialization — while `pages` holds
/// data only for the `dirty` subset; clean pages are looked up in the
/// parent at materialization time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaProcessImage {
    /// Registers and signal state (full copy).
    pub core: CoreImage,
    /// VMA list (full copy).
    pub mm: MmImage,
    /// All populated pages at delta time, sorted.
    pub pagemap: PagemapImage,
    /// The subset of `pagemap` whose data ships in `pages`, sorted.
    pub dirty: PagemapImage,
    /// Page data for `dirty` only, in the same order.
    pub pages: PagesImage,
    /// Descriptor table (full copy).
    pub files: FilesImage,
    /// TCP connections (full copy).
    pub tcp: TcpImage,
    /// Mirrors [`ProcessImage::exec_pages_dumped`].
    pub exec_pages_dumped: bool,
}

/// An incremental checkpoint: a parent reference plus per-process deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaImage {
    /// The checkpoint this delta applies on top of.
    pub parent: CkptId,
    /// Per-process deltas, in pid order.
    pub procs: Vec<DeltaProcessImage>,
    /// Kernel time at dump.
    pub time_ns: u64,
}

impl DeltaImage {
    /// Total size of the dirty-page payload, in bytes — the number this
    /// whole module exists to shrink relative to
    /// [`CheckpointImage::pages_bytes`].
    pub fn pages_bytes(&self) -> usize {
        self.procs.iter().map(|p| p.pages.bytes.len()).sum()
    }

    /// Builds a delta by comparing two materialized checkpoints byte for
    /// byte: a page is dirty if it is absent from `parent` or its
    /// contents differ. Useful when the kernel-side dirty bitmap is not
    /// available for the interval (e.g. diffing two stored images);
    /// [`dump_incremental`] is the live-process path.
    pub fn diff(parent_id: CkptId, parent: &CheckpointImage, current: &CheckpointImage) -> Self {
        let page = PAGE_SIZE as usize;
        let procs = current
            .procs
            .iter()
            .map(|image| {
                let parent_proc = parent.proc_image(image.core.pid);
                let mut dirty = PagemapImage::default();
                let mut pages = PagesImage::default();
                for (index, &base) in image.pagemap.pages.iter().enumerate() {
                    let bytes = &image.pages.bytes[index * page..(index + 1) * page];
                    let same_in_parent = parent_proc.is_some_and(|p| {
                        p.pagemap
                            .pages
                            .binary_search(&base)
                            .is_ok_and(|i| &p.pages.bytes[i * page..(i + 1) * page] == bytes)
                    });
                    if !same_in_parent {
                        dirty.pages.push(base);
                        pages.bytes.extend_from_slice(bytes);
                    }
                }
                DeltaProcessImage {
                    core: image.core.clone(),
                    mm: image.mm.clone(),
                    pagemap: image.pagemap.clone(),
                    dirty,
                    pages,
                    files: image.files.clone(),
                    tcp: image.tcp.clone(),
                    exec_pages_dumped: image.exec_pages_dumped,
                }
            })
            .collect();
        DeltaImage {
            parent: parent_id,
            procs,
            time_ns: current.time_ns,
        }
    }
}

/// Applies one delta on top of a materialized parent checkpoint.
///
/// Processes absent from the delta are dropped (they exited before the
/// delta was taken); processes absent from the parent must be fully
/// dirty.
///
/// # Errors
///
/// Fails with [`CriuError::BadImage`] if the delta is internally
/// inconsistent, or [`CriuError::Inconsistent`] if a clean page cannot be
/// found in the parent.
pub fn apply_delta(
    parent: &CheckpointImage,
    delta: &DeltaImage,
) -> Result<CheckpointImage, CriuError> {
    let page = PAGE_SIZE as usize;
    let mut procs = Vec::with_capacity(delta.procs.len());
    for d in &delta.procs {
        if d.pages.bytes.len() != d.dirty.pages.len() * page {
            return Err(CriuError::BadImage(format!(
                "delta pages hold {} bytes but {} dirty pages are listed",
                d.pages.bytes.len(),
                d.dirty.pages.len()
            )));
        }
        for base in &d.dirty.pages {
            if d.pagemap.pages.binary_search(base).is_err() {
                return Err(CriuError::BadImage(format!(
                    "dirty page {base:#x} is not in the delta pagemap"
                )));
            }
        }
        let parent_proc = parent.proc_image(d.core.pid);
        let mut bytes = Vec::with_capacity(d.pagemap.pages.len() * page);
        for &base in &d.pagemap.pages {
            if let Ok(index) = d.dirty.pages.binary_search(&base) {
                bytes.extend_from_slice(&d.pages.bytes[index * page..(index + 1) * page]);
                continue;
            }
            let source = parent_proc.ok_or_else(|| {
                CriuError::Inconsistent(format!(
                    "pid {} is new in the delta but page {base:#x} is not dirty",
                    d.core.pid.0
                ))
            })?;
            let index = source.pagemap.pages.binary_search(&base).map_err(|_| {
                CriuError::Inconsistent(format!(
                    "clean page {base:#x} is missing from the parent checkpoint"
                ))
            })?;
            bytes.extend_from_slice(&source.pages.bytes[index * page..(index + 1) * page]);
        }
        procs.push(ProcessImage {
            core: d.core.clone(),
            mm: d.mm.clone(),
            pagemap: d.pagemap.clone(),
            pages: PagesImage { bytes },
            files: d.files.clone(),
            tcp: d.tcp.clone(),
            exec_pages_dumped: d.exec_pages_dumped,
        });
    }
    Ok(CheckpointImage {
        procs,
        time_ns: delta.time_ns,
    })
}

/// Materializes a delta chain: applies each delta of `deltas`, in order,
/// on top of `parent`. The result is bit-identical to the full dump that
/// would have been taken at the last delta's instant.
///
/// # Errors
///
/// Propagates [`apply_delta`] failures.
pub fn materialize_chain<'a>(
    parent: &CheckpointImage,
    deltas: impl IntoIterator<Item = &'a DeltaImage>,
) -> Result<CheckpointImage, CriuError> {
    let mut current = parent.clone();
    for delta in deltas {
        current = apply_delta(&current, delta)?;
    }
    Ok(current)
}

/// Dumps processes as a [`DeltaImage`] against `parent`, carrying page
/// data only for pages the kernel's dirty bitmap flags — plus pages
/// absent from the parent's pagemap, which have no clean copy to fall
/// back on (e.g. binary-reconstructed text after a restore).
///
/// `parent` must be the checkpoint that established the current clean
/// baseline (the bitmap was swept when it was stored, via [`pre_dump`]
/// or [`mark_clean_after_dump`]). Like [`dump`], this does **not** sweep
/// the bitmap; sweep once the delta is safely stored.
///
/// # Errors
///
/// Fails if any process is missing or not frozen.
pub fn dump_incremental(
    kernel: &mut Kernel,
    pids: &[Pid],
    options: &DumpOptions,
    parent_id: CkptId,
    parent: &CheckpointImage,
) -> Result<DeltaImage, CriuError> {
    let page = PAGE_SIZE as usize;
    let mut procs = Vec::with_capacity(pids.len());
    let mut time_ns = kernel.clock_ns();
    for &pid in pids {
        let dirty_now: BTreeSet<u64> = kernel.process(pid)?.mem.dirty_pages().collect();
        let full = dump(kernel, pid, options)?;
        time_ns = kernel.clock_ns();
        let parent_proc = parent.proc_image(pid);
        let mut dirty = PagemapImage::default();
        let mut pages = PagesImage::default();
        for (index, &base) in full.pagemap.pages.iter().enumerate() {
            let in_parent = parent_proc
                .map(|p| p.pagemap.pages.binary_search(&base).is_ok())
                .unwrap_or(false);
            if dirty_now.contains(&base) || !in_parent {
                dirty.pages.push(base);
                pages
                    .bytes
                    .extend_from_slice(&full.pages.bytes[index * page..(index + 1) * page]);
            }
        }
        procs.push(DeltaProcessImage {
            core: full.core,
            mm: full.mm,
            pagemap: full.pagemap,
            dirty,
            pages,
            files: full.files,
            tcp: full.tcp,
            exec_pages_dumped: full.exec_pages_dumped,
        });
    }
    Ok(DeltaImage {
        parent: parent_id,
        procs,
        time_ns,
    })
}

/// Sweeps the dirty bitmap of each process, establishing the checkpoint
/// just taken as the clean baseline for future [`dump_incremental`]
/// calls. Call this only after the dump is safely stored — a dump that
/// failed (or was discarded) must leave the old baseline intact.
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

/// How many page bytes [`PreDump::complete`] copied in each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreDumpStats {
    /// Bytes copied inside the freeze window: the dirty residue plus
    /// pages populated after the pre-copy. This is the term the freeze
    /// window scales with (registers/sigactions/TCP state are O(1)).
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
    /// instant, copying only the dirty residue inside the freeze window.
    /// Returns the checkpoint plus the phase accounting.
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
/// the page bytes) plus one [`SharedPages`] reference set per process.
/// The page payload itself lives, deduplicated, in the store's
/// [`PageStore`].
#[derive(Debug, Clone)]
pub enum StoredCheckpoint {
    /// A self-contained checkpoint.
    Full {
        /// The checkpoint with every process's `pages.bytes` emptied.
        skeleton: CheckpointImage,
        /// Interned page payload, one entry per process, in `procs` order.
        pages: Vec<SharedPages>,
    },
    /// A delta referencing an earlier entry.
    Delta {
        /// The delta with every process's `pages.bytes` emptied.
        skeleton: DeltaImage,
        /// Interned dirty-page payload, one entry per process.
        pages: Vec<SharedPages>,
    },
}

impl StoredCheckpoint {
    /// Logical page payload of this entry — what a store without content
    /// addressing would hold for it (full payload for a full checkpoint,
    /// the dirty payload for a delta).
    pub fn pages_bytes(&self) -> usize {
        match self {
            StoredCheckpoint::Full { pages, .. } | StoredCheckpoint::Delta { pages, .. } => {
                pages.iter().map(SharedPages::pages_bytes).sum()
            }
        }
    }

    fn shared_pages(&self) -> &[SharedPages] {
        match self {
            StoredCheckpoint::Full { pages, .. } | StoredCheckpoint::Delta { pages, .. } => pages,
        }
    }
}

/// The tmpfs-like checkpoint store, extended to hold delta chains and
/// backed by a content-addressed [`PageStore`]: every dump written into
/// the store interns its page payload (N processes running the same
/// binary share one copy of every identical page; repeated cycles dedup
/// against prior checkpoints), and every materialization reads back
/// through it bit-identically.
///
/// Entries get sequential [`CkptId`]s; a delta's parent must already be
/// stored (and not released), so chains always resolve backwards.
/// [`release`] drops an entry and its page references; released ids —
/// and chains through them — fail with [`CriuError::MissingParent`].
///
/// [`release`]: CheckpointStore::release
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    entries: Vec<Option<StoredCheckpoint>>,
    pages: PageStore,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a full checkpoint, interning its page payload, and returns
    /// its id.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::BadImage`] if a process's payload is not
    /// exactly one page per pagemap entry (no page ref is taken), or
    /// [`CriuError::PageCollision`] if any page's content key is already
    /// held by different bytes; references taken for earlier processes
    /// are released again and nothing is stored.
    pub fn put_full(&mut self, mut image: CheckpointImage) -> Result<CkptId, CriuError> {
        for proc in &image.procs {
            check_payload(&proc.pages, &proc.pagemap)?;
        }
        let mut pages = Vec::with_capacity(image.procs.len());
        for proc in &mut image.procs {
            match SharedPages::intern(&mut self.pages, &proc.pages) {
                Ok(shared) => {
                    proc.pages.bytes.clear();
                    pages.push(shared);
                }
                Err(err) => {
                    Self::unwind_interned(&mut self.pages, &pages);
                    return Err(err);
                }
            }
        }
        self.entries.push(Some(StoredCheckpoint::Full {
            skeleton: image,
            pages,
        }));
        Ok(CkptId(self.entries.len() as u64 - 1))
    }

    /// Releases references taken for a partially-interned checkpoint
    /// whose later process hit a collision. The refs were just taken, so
    /// misses are impossible; the collision stays the reported error.
    fn unwind_interned(pages: &mut PageStore, taken: &[SharedPages]) {
        for shared in taken.iter().rev() {
            let _ = shared.release(pages);
        }
    }

    /// Stores a delta, interning its dirty-page payload and validating
    /// that its parent exists and has not been released.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if the parent id is not
    /// live in the store, [`CriuError::BadImage`] if a process's payload
    /// is not exactly one page per dirty-list entry, or
    /// [`CriuError::PageCollision`] if a dirty page's key is already held
    /// by different bytes. Nothing is stored and no page ref is kept.
    pub fn put_delta(&mut self, mut delta: DeltaImage) -> Result<CkptId, CriuError> {
        if self.get(delta.parent).is_none() {
            return Err(CriuError::MissingParent(delta.parent));
        }
        for proc in &delta.procs {
            check_payload(&proc.pages, &proc.dirty)?;
        }
        let mut pages = Vec::with_capacity(delta.procs.len());
        for proc in &mut delta.procs {
            match SharedPages::intern(&mut self.pages, &proc.pages) {
                Ok(shared) => {
                    proc.pages.bytes.clear();
                    pages.push(shared);
                }
                Err(err) => {
                    Self::unwind_interned(&mut self.pages, &pages);
                    return Err(err);
                }
            }
        }
        self.entries.push(Some(StoredCheckpoint::Delta {
            skeleton: delta,
            pages,
        }));
        Ok(CkptId(self.entries.len() as u64 - 1))
    }

    /// Looks up a live entry. The entry is a skeleton — page payloads
    /// live in the [`PageStore`]; use [`materialize`] to rehydrate.
    ///
    /// [`materialize`]: CheckpointStore::materialize
    pub fn get(&self, id: CkptId) -> Option<&StoredCheckpoint> {
        self.entries.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Releases a checkpoint: drops its entry and one page-store
    /// reference per page it interned; bytes no other checkpoint shares
    /// are freed. Ids are never reused, so later [`materialize`] or
    /// [`CheckpointStore::put_delta`] calls naming this id (or chaining through it) fail
    /// with [`CriuError::MissingParent`].
    ///
    /// [`materialize`]: CheckpointStore::materialize
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if the id is absent or
    /// already released, or [`CriuError::UnknownPage`] if one of its page
    /// references was already gone from the page store (every other
    /// reference is still released).
    pub fn release(&mut self, id: CkptId) -> Result<(), CriuError> {
        let slot = self
            .entries
            .get_mut(id.0 as usize)
            .ok_or(CriuError::MissingParent(id))?;
        let entry = slot.take().ok_or(CriuError::MissingParent(id))?;
        let mut first_miss = None;
        for shared in entry.shared_pages() {
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
        self.entries.iter().flatten().count()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total **logical** page payload across live entries — what a store
    /// without delta chains *and* without content addressing would hold,
    /// the sum a full-dump-only policy would inflate. The physically
    /// held bytes are [`unique_pages_bytes`].
    ///
    /// [`unique_pages_bytes`]: CheckpointStore::unique_pages_bytes
    pub fn stored_pages_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(StoredCheckpoint::pages_bytes)
            .sum()
    }

    /// The content-addressed page store backing this checkpoint store.
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Mutable access to the backing page store, for handle-based
    /// restore paths ([`RestoreTransaction::prepare`]) that
    /// intern a transient payload and release it before returning.
    /// Callers own the refcount discipline: every reference taken
    /// through this must be released through it.
    pub fn page_store_mut(&mut self) -> &mut PageStore {
        &mut self.pages
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

    /// Rehydrates one live entry's page payload from the page store.
    fn rehydrate(&self, entry: &StoredCheckpoint) -> Result<RehydratedCheckpoint, CriuError> {
        match entry {
            StoredCheckpoint::Full { skeleton, pages } => {
                let mut image = skeleton.clone();
                for (proc, shared) in image.procs.iter_mut().zip(pages) {
                    proc.pages = shared.materialize(&self.pages)?;
                }
                Ok(RehydratedCheckpoint::Full(image))
            }
            StoredCheckpoint::Delta { skeleton, pages } => {
                let mut delta = skeleton.clone();
                for (proc, shared) in delta.procs.iter_mut().zip(pages) {
                    proc.pages = shared.materialize(&self.pages)?;
                }
                Ok(RehydratedCheckpoint::Delta(delta))
            }
        }
    }

    /// Materializes the checkpoint `id` by walking its delta chain back
    /// to the nearest full checkpoint, rehydrating every page payload
    /// from the content-addressed store, and replaying the deltas in
    /// order. Bit-identical to the images originally written in.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` or any ancestor is
    /// absent or released, or propagates [`apply_delta`] failures.
    pub fn materialize(&self, id: CkptId) -> Result<CheckpointImage, CriuError> {
        let mut chain: Vec<DeltaImage> = Vec::new();
        let mut cursor = id;
        let base = loop {
            match self.get(cursor) {
                None => return Err(CriuError::MissingParent(cursor)),
                Some(entry) => match self.rehydrate(entry)? {
                    RehydratedCheckpoint::Full(image) => break image,
                    RehydratedCheckpoint::Delta(delta) => {
                        cursor = delta.parent;
                        chain.push(delta);
                    }
                },
            }
        };
        materialize_chain(&base, chain.iter().rev())
    }

    /// Dumps frozen processes straight **through** the store: a full
    /// [`dump_many`] whose page payload is interned on the way in.
    /// Returns the new entry's id.
    ///
    /// # Errors
    ///
    /// Propagates [`dump_many`] failures.
    pub fn dump_full(
        &mut self,
        kernel: &mut Kernel,
        pids: &[Pid],
        options: &DumpOptions,
    ) -> Result<CkptId, CriuError> {
        let image = dump_many(kernel, pids, options)?;
        self.put_full(image)
    }

    /// Dumps frozen processes as a delta against a stored parent,
    /// reading the parent back through the page store and interning the
    /// dirty payload on the way in. Returns the new entry's id.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if the parent is absent
    /// or released; propagates [`dump_incremental`] failures.
    pub fn dump_delta(
        &mut self,
        kernel: &mut Kernel,
        pids: &[Pid],
        options: &DumpOptions,
        parent_id: CkptId,
    ) -> Result<CkptId, CriuError> {
        let parent = self.materialize(parent_id)?;
        let delta = dump_incremental(kernel, pids, options, parent_id, &parent)?;
        self.put_delta(delta)
    }

    /// Restores the checkpoint `id` **zero-copy**: instead of
    /// materializing the page payload, the delta chain is resolved at
    /// the *key* level (newest delta wins per page) and every restored
    /// page is backed by a [`SharedFrame`](dynacut_vm::SharedFrame)
    /// handle straight out of the content-addressed store. No page byte
    /// is copied by the restore itself ([`PageStore::copied_bytes`] does
    /// not move); the first guest write to each page copy-on-writes it
    /// private. Re-dumping the restored processes gives back
    /// [`materialize`](CheckpointStore::materialize)`(id)` byte for byte.
    ///
    /// The commit is transactional ([`RestoreTransaction::commit`]) and
    /// flushes every restored process's block cache (the commit's choke
    /// point), so no decoded block survives the swap.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` or any ancestor
    /// is absent or released, [`CriuError::BadImage`] /
    /// [`CriuError::Inconsistent`] on a malformed chain, or propagates
    /// build/commit failures (kernel untouched or rolled back).
    pub fn restore(
        &self,
        kernel: &mut Kernel,
        id: CkptId,
        registry: &crate::ModuleRegistry,
    ) -> Result<Vec<Pid>, CriuError> {
        let resolved = self.resolve(id)?;
        let mut staged: Vec<StagedProcess> = Vec::with_capacity(resolved.procs.len());
        for (image, keys) in &resolved.procs {
            if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::RestoreHandles) {
                return Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::RestoreHandles,
                ));
            }
            staged.push(build_process(kernel, image, registry, keys, &self.pages)?);
        }
        let committed = RestoreTransaction::from_staged(staged).commit(kernel)?;
        Ok(committed.pids().to_vec())
    }

    /// Promotes a resolved checkpoint — a customized canary image, from
    /// [`resolve`](CheckpointStore::resolve) — onto a *different*
    /// replica group: each frozen `target` process is
    /// replaced by a clone of the corresponding canary process built
    /// entirely from shared page handles. This is the fleet-rollout fast
    /// path: no page is dumped from the target, no page byte is copied
    /// out of the store ([`PageStore::copied_bytes`] does not move), and
    /// the rewrite itself is never repeated.
    ///
    /// The canary image is **retargeted** before building: the target
    /// keeps its own pid, parent and descriptor table (captured live,
    /// exactly as [`dump`](crate::dump) would record them), while
    /// memory, registers, sigactions, modules and the syscall filter
    /// come from the canary — the promoted replica *is* the canary,
    /// wearing the target's identity. Targets must match the canary
    /// group one-to-one and be frozen.
    ///
    /// Returns the [`CommittedRestore`](crate::CommittedRestore) receipt
    /// so a rollout engine can [`undo`](crate::CommittedRestore::undo)
    /// the promotion if a later replica
    /// fails — the same PR 2 transaction machinery as a normal cycle.
    ///
    /// One resolved image serves every group of a promotion wave, so the
    /// delta chain is walked once per wave, not once per group. Its keys
    /// stay valid while the checkpoint it was resolved from is live.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::Inconsistent`] on a group-size mismatch or
    /// a key the store no longer holds, [`CriuError::Vm`] if a target is
    /// missing or not frozen, or propagates build/commit failures; the
    /// kernel is untouched or rolled back on every error path.
    pub fn promote_shared(
        &self,
        kernel: &mut Kernel,
        resolved: &ResolvedCheckpoint,
        registry: &crate::ModuleRegistry,
        targets: &[Pid],
    ) -> Result<crate::CommittedRestore, CriuError> {
        if resolved.procs.len() != targets.len() {
            return Err(CriuError::Inconsistent(format!(
                "canary image holds {} processes but the target group has {}",
                resolved.procs.len(),
                targets.len()
            )));
        }
        let mut staged: Vec<StagedProcess> = Vec::with_capacity(targets.len());
        for ((image, keys), &pid) in resolved.procs.iter().zip(targets) {
            if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::PromoteRestore) {
                return Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::PromoteRestore,
                ));
            }
            let retargeted = Self::retarget(kernel, image, pid)?;
            staged.push(build_process(
                kernel,
                &retargeted,
                registry,
                keys,
                &self.pages,
            )?);
        }
        RestoreTransaction::from_staged(staged).commit(kernel)
    }

    /// Rewrites a canary process image to wear a live target process's
    /// identity: pid, parent, name and descriptor table come from the
    /// (frozen) target; everything else stays the canary's.
    fn retarget(
        kernel: &Kernel,
        canary: &ProcessImage,
        pid: Pid,
    ) -> Result<ProcessImage, CriuError> {
        use dynacut_vm::{FileDesc, ProcState};
        let proc = kernel.process(pid)?;
        if proc.state != ProcState::Frozen {
            return Err(CriuError::Vm(dynacut_vm::VmError::BadProcessState {
                pid,
                expected: "frozen",
            }));
        }
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
        Ok(ProcessImage {
            core: CoreImage {
                pid,
                parent: proc.parent,
                name: proc.name.clone(),
                ..canary.core.clone()
            },
            mm: canary.mm.clone(),
            pagemap: canary.pagemap.clone(),
            // Page payloads live in the store; the skeleton carries none.
            pages: PagesImage::default(),
            files,
            // `tcp` only matters for repair-mode buffer transplants on a
            // serialized restore; the target's live connections stay in
            // the net stack untouched.
            tcp: TcpImage::default(),
            exec_pages_dumped: canary.exec_pages_dumped,
        })
    }

    /// Resolves checkpoint `id` to per-process skeletons plus one page
    /// key per pagemap entry, walking the delta chain with newest-wins
    /// semantics — the key-level analogue of [`materialize`], with no
    /// page bytes touched. [`restore`] and [`promote_shared`] build
    /// processes from the result.
    ///
    /// [`materialize`]: CheckpointStore::materialize
    /// [`restore`]: CheckpointStore::restore
    /// [`promote_shared`]: CheckpointStore::promote_shared
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` or any ancestor
    /// is absent or released, or [`CriuError::BadImage`] /
    /// [`CriuError::Inconsistent`] on a malformed chain.
    pub fn resolve(&self, id: CkptId) -> Result<ResolvedCheckpoint, CriuError> {
        // Collect the chain newest-first, stopping at the full base.
        let mut chain: Vec<&StoredCheckpoint> = Vec::new();
        let mut cursor = id;
        loop {
            let entry = self.get(cursor).ok_or(CriuError::MissingParent(cursor))?;
            chain.push(entry);
            match entry {
                StoredCheckpoint::Full { .. } => break,
                StoredCheckpoint::Delta { skeleton, .. } => cursor = skeleton.parent,
            }
        }

        // Replay oldest-first, carrying a per-pid map of page base → key.
        let mut keymaps: BTreeMap<Pid, BTreeMap<u64, PageKey>> = BTreeMap::new();
        let mut skeletons: Vec<(Pid, ProcessImage)> = Vec::new();
        for entry in chain.iter().rev() {
            match entry {
                StoredCheckpoint::Full { skeleton, pages } => {
                    keymaps.clear();
                    skeletons.clear();
                    for (proc, shared) in skeleton.procs.iter().zip(pages) {
                        if shared.page_count() != proc.pagemap.pages.len() {
                            return Err(CriuError::BadImage(format!(
                                "stored checkpoint holds {} page refs but pagemap lists {} pages",
                                shared.page_count(),
                                proc.pagemap.pages.len()
                            )));
                        }
                        let map = proc
                            .pagemap
                            .pages
                            .iter()
                            .copied()
                            .zip(shared.keys().iter().copied())
                            .collect();
                        keymaps.insert(proc.core.pid, map);
                        skeletons.push((proc.core.pid, proc.clone()));
                    }
                }
                StoredCheckpoint::Delta { skeleton, pages } => {
                    let mut next_maps: BTreeMap<Pid, BTreeMap<u64, PageKey>> = BTreeMap::new();
                    let mut next_skeletons: Vec<(Pid, ProcessImage)> = Vec::new();
                    for (d, shared) in skeleton.procs.iter().zip(pages) {
                        if shared.page_count() != d.dirty.pages.len() {
                            return Err(CriuError::BadImage(format!(
                                "stored delta holds {} page refs but {} dirty pages are listed",
                                shared.page_count(),
                                d.dirty.pages.len()
                            )));
                        }
                        let dirty: BTreeMap<u64, PageKey> = d
                            .dirty
                            .pages
                            .iter()
                            .copied()
                            .zip(shared.keys().iter().copied())
                            .collect();
                        let parent_map = keymaps.get(&d.core.pid);
                        let mut map = BTreeMap::new();
                        for &base in &d.pagemap.pages {
                            let key = match dirty.get(&base) {
                                Some(&key) => key,
                                None => *parent_map.and_then(|m| m.get(&base)).ok_or_else(|| {
                                    CriuError::Inconsistent(format!(
                                        "clean page {base:#x} is missing from the parent checkpoint"
                                    ))
                                })?,
                            };
                            map.insert(base, key);
                        }
                        next_maps.insert(d.core.pid, map);
                        next_skeletons.push((
                            d.core.pid,
                            ProcessImage {
                                core: d.core.clone(),
                                mm: d.mm.clone(),
                                pagemap: d.pagemap.clone(),
                                pages: PagesImage::default(),
                                files: d.files.clone(),
                                tcp: d.tcp.clone(),
                                exec_pages_dumped: d.exec_pages_dumped,
                            },
                        ));
                    }
                    // Processes absent from the delta exited before it.
                    keymaps = next_maps;
                    skeletons = next_skeletons;
                }
            }
        }

        let procs = skeletons
            .into_iter()
            .map(|(pid, image)| {
                let map = keymaps
                    .get(&pid)
                    .ok_or_else(|| CriuError::Inconsistent(format!("no key map for pid {}", pid.0)))?;
                let keys = image
                    .pagemap
                    .pages
                    .iter()
                    .map(|base| {
                        map.get(base).copied().ok_or_else(|| {
                            CriuError::Inconsistent(format!("no key for page {base:#x}"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((image, keys))
            })
            .collect::<Result<_, CriuError>>()?;
        Ok(ResolvedCheckpoint { procs })
    }
}

/// A stored checkpoint resolved down to what a zero-copy restore needs:
/// per-process skeletons (no page bytes) plus one page key per pagemap
/// entry, the delta chain already applied. Built by
/// [`CheckpointStore::resolve`]; consumed by
/// [`CheckpointStore::promote_shared`].
#[derive(Debug, Clone)]
pub struct ResolvedCheckpoint {
    procs: Vec<(ProcessImage, Vec<PageKey>)>,
}

/// Checks that a payload holds exactly one whole page per entry of the
/// pagemap it ships with — the invariant every zero-copy restore of the
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

/// A store entry with its page payload read back out of the page store.
enum RehydratedCheckpoint {
    Full(CheckpointImage),
    Delta(DeltaImage),
}
