//! Incremental (dirty-page) checkpointing and the checkpoint store.
//!
//! The paper's rewrite loop freezes the application for the whole
//! checkpoint→edit→restore round trip. Most of that window is spent
//! copying pages that have not changed since the previous checkpoint.
//! This module reproduces the CRIU mechanisms that shrink it:
//!
//! * **Pre-dump** ([`pre_dump`]): the two-phase protocol that copies
//!   the current pages while the guest is still running, into shared
//!   frames in place that the checkpoint keeps, then freezes only to
//!   copy the *dirty residue* — the pages the kernel's dirty-page
//!   bitmap (the soft-dirty analogue, [`AddressSpace::dirty_pages`])
//!   flags as written since — plus registers, sigactions and
//!   TCP-repair state. [`PreDumpStats::of`] splits a dump's page bytes
//!   between the two.
//! * **The checkpoint store** ([`CheckpointStore`]): every checkpoint
//!   enters it whole, through [`CheckpointStore::put_full`], and is
//!   stored flat — the image itself, each page backed by the
//!   content-addressed store's own frame, plus the key of every page it
//!   holds a reference on. A page unchanged since an earlier checkpoint
//!   hash-hits that checkpoint's frame, so it costs a key and a
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

use crate::images::*;
use crate::page_store::{PageKey, PageStore};
use crate::restore::{build_process, ModuleRegistry, RestoreTransaction, StagedProcess};
use crate::CriuError;
use dynacut_obj::{PAGE_LEN, PAGE_SIZE};
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

/// How a checkpoint's page bytes split between the freeze and the
/// pre-copy ([`PreDumpStats::of`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreDumpStats {
    /// Bytes left for the freeze: the dirty residue, every page written
    /// or populated since the pre-dump. A modeled freeze window charges
    /// these bytes (registers/sigactions/TCP state are O(1)).
    pub frozen_page_bytes: usize,
    /// Bytes the pre-dump moved while the guest ran: the clean pages,
    /// which the freeze handed out as the pre-dump's frames.
    pub prewritten_page_bytes: usize,
}

impl PreDumpStats {
    /// Splits the page bytes of `checkpoint`, dumped after a [`pre_dump`]
    /// of its processes, by the dirty bit: a dirty page is frozen, a
    /// clean one, which still holds the slot the pre-dump shared,
    /// prewritten.
    ///
    /// # Errors
    ///
    /// Fails if a process of the checkpoint does not exist.
    pub fn of(kernel: &Kernel, checkpoint: &CheckpointImage) -> Result<PreDumpStats, CriuError> {
        let mut stats = PreDumpStats::default();
        for image in &checkpoint.procs {
            let mem = &kernel.process(image.core.pid)?.mem;
            for base in image.pages.keys() {
                if mem.page_dirty(*base) {
                    stats.frozen_page_bytes += PAGE_LEN;
                } else {
                    stats.prewritten_page_bytes += PAGE_LEN;
                }
            }
        }
        Ok(stats)
    }
}

/// Phase one of the two-phase dump, run **without a freeze**: backs
/// every private page of every process with a shared frame holding the
/// same bytes, in place ([`AddressSpace::share_pages`]), then sweeps
/// the dirty bitmap. It keeps no page of its own. A page still clean at
/// the freeze is still that frame, so the frozen [`dump_many`] hands it
/// out without a copy and copies only the dirty residue;
/// [`PreDumpStats::of`] splits its bytes.
///
/// # Errors
///
/// Fails if a process does not exist.
///
/// [`AddressSpace::share_pages`]: dynacut_vm::AddressSpace::share_pages
/// [`dump_many`]: crate::dump_many
pub fn pre_dump(kernel: &mut Kernel, pids: &[Pid]) -> Result<(), CriuError> {
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::PreDump) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::PreDump,
        ));
    }
    for &pid in pids {
        let mem = &mut kernel.process_mut(pid)?.mem;
        mem.share_pages();
        mem.mark_clean();
        let page_bytes = (mem.populated_page_count() * PAGE_LEN) as u64;
        kernel.record_flight(
            Some(pid),
            dynacut_vm::EventKind::ProcessPreDumped { page_bytes },
        );
    }
    Ok(())
}

/// One entry of a [`CheckpointStore`]: the checkpoint itself, every
/// page backed by the [`PageStore`]'s own frame, plus the key of each
/// page it holds one store reference on. Every entry is
/// self-contained: none refers to another.
#[derive(Debug, Clone)]
pub(crate) struct StoredCheckpoint {
    /// The checkpoint as put, its pages the store's frames.
    pub(crate) image: CheckpointImage,
    /// One key per page of `image`, in process then address order.
    keys: Vec<PageKey>,
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
/// each is the image itself, holding the store's frames, so reading one
/// never touches another, and the pages it shares with earlier entries
/// cost a key and a refcount, not a byte copy. Only live entries are
/// kept; ids are never reused, and a released id fails with
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

    /// Stores a checkpoint, interning its pages, and returns its id. The
    /// image is only read: the entry keeps a copy of it whose frames are
    /// the page store's, so no byte is copied but a page the store has
    /// never seen.
    ///
    /// Each distinct frame of the image is interned once, however many
    /// pages it backs: its first page is hashed and, on a hit, compared
    /// byte for byte ([`PageStore::intern`]); every later page on the
    /// same frame takes one more reference on that key, with no hashing
    /// and no compare. One frame holds one set of bytes, and `image`
    /// keeps every frame alive for the whole call, so no frame's address
    /// can name another within it. The store's rules are those of one
    /// intern per page: one reference per page, the same keys and the
    /// same [`PageStore::copied_bytes`].
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::BadImage`] if a page base is not
    /// page-aligned or a VMA ends before it starts (no page ref is
    /// taken), or [`CriuError::PageCollision`] if any page's content key
    /// is already held by different bytes; references taken for earlier
    /// pages are released again and nothing is stored.
    pub fn put_full(&mut self, image: &CheckpointImage) -> Result<CkptId, CriuError> {
        for proc in &image.procs {
            check_pages(proc)?;
            check_vmas(&proc.mm)?;
        }
        let mut stored = image.clone();
        let mut keys = Vec::with_capacity(image.procs.iter().map(|proc| proc.pages.len()).sum());
        // The key each frame of `image` was interned under, by address.
        let mut interned: BTreeMap<usize, PageKey> = BTreeMap::new();
        for frame in stored
            .procs
            .iter_mut()
            .flat_map(|proc| proc.pages.values_mut())
        {
            let addr = frame.addr();
            let taken = match interned.get(&addr) {
                Some(&key) => self.pages.retain(key).map(|own| (key, own)),
                None => self.pages.intern(frame.bytes()).inspect(|&(key, _)| {
                    interned.insert(addr, key);
                }),
            };
            match taken {
                Ok((key, own)) => {
                    keys.push(key);
                    *frame = own;
                }
                Err(err) => {
                    for &taken in keys.iter().rev() {
                        // These refs were just taken, so the release
                        // cannot miss; the collision is the error.
                        let _ = self.pages.release(taken);
                    }
                    return Err(err);
                }
            }
        }
        let id = CkptId(self.next_id);
        self.next_id += 1;
        self.entries.insert(
            id,
            StoredCheckpoint {
                image: stored,
                keys,
            },
        );
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
        for &key in &entry.keys {
            if let Err(err) = self.pages.release(key) {
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

    /// The name of every module a process of a live entry maps, once
    /// per process that maps it: the binaries a restore from this store
    /// resolves.
    pub fn module_names(&self) -> impl Iterator<Item = &str> {
        self.entries
            .values()
            .flat_map(|entry| &entry.image.procs)
            .flat_map(|proc| &proc.core.modules)
            .map(|module| module.name.as_str())
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
            .map(|entry| entry.keys.len())
            .sum::<usize>()
            * PAGE_LEN
    }

    /// Page bytes of checkpoint `id` that are absent from, or differ in,
    /// checkpoint `since` (processes matched by pid): the pages `id` does
    /// not share with `since`.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if either id is absent or
    /// released.
    pub fn changed_pages_bytes(&self, since: CkptId, id: CkptId) -> Result<usize, CriuError> {
        let before = &self.get(since)?.image;
        let after = &self.get(id)?.image;
        let mut changed = 0;
        for proc in &after.procs {
            let old = before.proc_image(proc.core.pid);
            for (base, frame) in &proc.pages {
                if old.and_then(|old| old.pages.get(base)) != Some(frame) {
                    changed += PAGE_LEN;
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

    /// Materializes the checkpoint `id`: the entry's image, sharing the
    /// store's frames (an edit of the copy copies the page it writes
    /// first). Bit-identical to the image originally written in.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is absent or
    /// released.
    pub fn materialize(&self, id: CkptId) -> Result<CheckpointImage, CriuError> {
        Ok(self.get(id)?.image.clone())
    }

    /// Stages a restore of the checkpoint `id` without mutating the
    /// kernel: every process is built from the entry's image, each dumped
    /// page backed by a handle on the entry's [`SharedFrame`] for it, the
    /// content-addressed store's own. No page byte is copied and no store
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
    ///
    /// [`SharedFrame`]: dynacut_vm::SharedFrame
    pub fn stage_restore(
        &self,
        kernel: &Kernel,
        id: CkptId,
        registry: &ModuleRegistry,
    ) -> Result<RestoreTransaction, CriuError> {
        let procs = &self.get(id)?.image.procs;
        let mut staged: Vec<StagedProcess> = Vec::with_capacity(procs.len());
        for image in procs {
            if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::RestoreHandles) {
                return Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::RestoreHandles,
                ));
            }
            staged.push(build_process(kernel, image, registry)?);
        }
        Ok(RestoreTransaction::from_staged(staged))
    }

    /// Restores the checkpoint `id` **zero-copy**: the restore staged by
    /// [`stage_restore`](CheckpointStore::stage_restore), committed. No
    /// page byte is copied by the restore itself. Re-dumping the
    /// restored processes gives back
    /// [`materialize`](CheckpointStore::materialize)`(id)` byte for byte.
    ///
    /// The commit is transactional ([`RestoreTransaction::commit`]), and
    /// every restored process is built new with an empty block cache, so
    /// no decoded block survives the swap.
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

/// Checks that every page base is page-aligned — an invariant every
/// zero-copy restore of the stored entry relies on (an unaligned base
/// would land its frame on the page below). The map keeps the bases
/// sorted and unique, and each frame is one page by type.
fn check_pages(image: &ProcessImage) -> Result<(), CriuError> {
    match image
        .pages
        .keys()
        .find(|base| !base.is_multiple_of(PAGE_SIZE))
    {
        Some(base) => Err(CriuError::BadImage(format!(
            "page base {base:#x} is not page-aligned"
        ))),
        None => Ok(()),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_obj::Perms;
    use dynacut_vm::{SharedFrame, SigAction, Signal};
    use std::cell::Cell;

    /// A checkpoint of one process per entry of `procs`, the `i`-th page
    /// of each filled with its `i`-th byte. Pages with the same fill
    /// share one frame, across processes too.
    fn checkpoint(procs: &[&[u8]]) -> CheckpointImage {
        let mut frames: BTreeMap<u8, SharedFrame> = BTreeMap::new();
        let mut image = |pid: u32, fills: &[u8]| ProcessImage {
            core: CoreImage {
                pid: Pid(pid),
                parent: None,
                name: "p".into(),
                regs: [0; 16],
                pc: 0,
                flags_bits: 0,
                sigactions: [SigAction::default(); Signal::COUNT],
                signal_depth: 0,
                insns_retired: 0,
                modules: Vec::new(),
                syscall_filter: u64::MAX,
            },
            mm: MmImage {
                vmas: vec![VmaImage {
                    start: 0x1000,
                    end: 0x1000 + 16 * PAGE_SIZE,
                    perms: Perms::RW,
                    name: "heap".into(),
                }],
            },
            pages: (0x1000..)
                .step_by(PAGE_LEN)
                .zip(fills)
                .map(|(base, &fill)| {
                    let frame = frames
                        .entry(fill)
                        .or_insert_with(|| SharedFrame::new(&[fill; PAGE_LEN]));
                    (base, frame.clone())
                })
                .collect(),
            files: FilesImage::default(),
            tcp: TcpImage::default(),
            exec_pages_dumped: true,
        };
        CheckpointImage {
            procs: (1..)
                .zip(procs)
                .map(|(pid, fills)| image(pid, fills))
                .collect(),
            time_ns: 0,
        }
    }

    thread_local! {
        /// Pages hashed on this thread through the `hasher` hook.
        static HASHES: Cell<usize> = const { Cell::new(0) };
    }

    /// The content hash, counted in [`HASHES`].
    fn counted_hash(bytes: &[u8]) -> PageKey {
        HASHES.with(|hashes| hashes.set(hashes.get() + 1));
        PageKey::of(bytes)
    }

    /// Puts `image` into a new store whose hashes are counted; returns
    /// the store, the entry's keys and the number of pages hashed.
    fn put_counted(image: &CheckpointImage) -> (CheckpointStore, Vec<PageKey>, usize) {
        let mut store = CheckpointStore::new();
        store.pages.hasher = Some(counted_hash);
        HASHES.set(0);
        let id = store.put_full(image).unwrap();
        assert_eq!(store.materialize(id).unwrap(), *image);
        let keys = store.get(id).unwrap().keys.clone();
        (store, keys, HASHES.get())
    }

    /// `put_full` hashes each distinct frame once, however many pages it
    /// backs, and leaves the store as one intern per page does: the same
    /// keys, refs per key, copied bytes and stored bytes.
    #[test]
    fn put_full_hashes_each_frame_once() {
        // Nine pages on four frames: 0x00's backs five pages in both
        // processes, 0x01's two, and the last page is a frame of its
        // own holding 0x01's bytes.
        let mut shared = checkpoint(&[&[0x00, 0x01, 0x00, 0x00], &[0x00, 0x02, 0x01, 0x00]]);
        shared.procs[1]
            .pages
            .insert(0x1000 + 4 * PAGE_SIZE, SharedFrame::new(&[0x01; PAGE_LEN]));
        // The same bytes on one frame per page.
        let mut private = shared.clone();
        for frame in private
            .procs
            .iter_mut()
            .flat_map(|proc| proc.pages.values_mut())
        {
            *frame = SharedFrame::new(frame.bytes());
        }

        let (store, keys, hashes) = put_counted(&shared);
        let (reference, reference_keys, reference_hashes) = put_counted(&private);
        assert_eq!(hashes, 4, "one hash per distinct frame");
        assert_eq!(reference_hashes, 9, "one hash per page");
        assert_eq!(keys, reference_keys);
        for key in &keys {
            assert_eq!(store.pages.refs(*key), reference.pages.refs(*key), "{key}");
        }
        assert_eq!(store.pages.copied_bytes(), 3 * PAGE_SIZE);
        assert_eq!(store.pages.copied_bytes(), reference.pages.copied_bytes());
        assert_eq!(store.stored_pages_bytes(), 9 * PAGE_LEN);
        assert_eq!(store.stored_pages_bytes(), reference.stored_pages_bytes());
    }

    /// A colliding page part-way through a checkpoint must not strand the
    /// references taken for the pages put before it, in its own process
    /// or an earlier one, those taken for a repeated frame included.
    #[test]
    fn put_full_unwinds_refs_on_a_collision_part_way() {
        let mut store = CheckpointStore::new();
        store.pages.hasher = Some(|bytes| PageKey::of(&[bytes[0] & 0x0F]));
        // 0x11 collides with 0x01; 0x02's frame backs three pages
        // before it.
        let err = store
            .put_full(&checkpoint(&[
                &[0x01, 0x02, 0x02],
                &[0x03, 0x02, 0x11, 0x04],
            ]))
            .unwrap_err();
        assert!(matches!(err, CriuError::PageCollision(_)), "got {err}");
        assert!(store.is_empty(), "nothing was stored");
        assert_eq!(
            store.page_store().unique_pages(),
            0,
            "partial refs were unwound"
        );
        assert_eq!(store.logical_pages_bytes(), 0);
    }

    /// A release miss is reported, but does not leak the entry's other
    /// references.
    #[test]
    fn release_reports_a_missing_ref_but_frees_the_rest() {
        let mut store = CheckpointStore::new();
        let id = store.put_full(&checkpoint(&[&[0x01, 0x02]])).unwrap();
        let first = store.get(id).unwrap().keys[0];
        // Drop the first page's reference behind the entry's back.
        store.pages.release(first).unwrap();
        assert_eq!(store.release(id), Err(CriuError::UnknownPage(first)));
        assert_eq!(
            store.page_store().unique_pages(),
            0,
            "the other reference was still freed"
        );
        assert!(matches!(
            store.release(id),
            Err(CriuError::MissingParent(_))
        ));
    }
}
