//! Paged address spaces with VMA-granular permissions.

use crate::{VmError, Vma};
use dynacut_isa::Width;
use dynacut_obj::{checked_page_align, Perms, PAGE_SIZE};
use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// [`PAGE_SIZE`] as a length.
const PAGE_LEN: usize = 4096;
const _: () = assert!(PAGE_LEN as u64 == PAGE_SIZE);

/// One page of bytes: the unit every frame, slot and checkpoint image
/// holds.
pub type Page = [u8; PAGE_LEN];

/// The base of the page containing `addr`.
#[inline]
fn page_base(addr: u64) -> u64 {
    addr & !(PAGE_SIZE - 1)
}

/// The offset of `addr` inside its page.
#[inline]
fn page_offset(addr: u64) -> usize {
    usize::try_from(addr & (PAGE_SIZE - 1)).expect("an in-page offset is below PAGE_LEN")
}

/// One refcounted page frame that several address spaces, checkpoint
/// images and a host-side page store can back simultaneously.
///
/// This is the zero-copy currency of checkpoint and restore: a dump
/// hands out a shared slot's frame instead of copying it, and a restore
/// installs clones of one frame into every replica instead of copying
/// the page N times. A frame is one page by type. It is written only
/// through [`make_mut`](SharedFrame::make_mut), which first copies it
/// when another handle can see it, so a frame another handle can see is
/// never written: sharing one across processes, images and the store
/// can never leak one holder's writes into another.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedFrame(Arc<Page>);

impl SharedFrame {
    /// Copies one page into a new frame.
    pub fn new(bytes: &Page) -> Self {
        SharedFrame(Arc::new(*bytes))
    }

    /// A new frame of zeros.
    pub fn zeroed() -> Self {
        SharedFrame(Arc::new([0; PAGE_LEN]))
    }

    /// The page bytes.
    pub fn bytes(&self) -> &Page {
        &self.0
    }

    /// The page bytes, for writing: copied into a frame of this
    /// handle's own first if another handle can see them (copy on
    /// write), written in place otherwise.
    pub fn make_mut(&mut self) -> &mut Page {
        Arc::make_mut(&mut self.0)
    }

    /// How many handles (address-space slots, checkpoint images, store
    /// entries, staged processes) currently share this frame.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// The frame's address: two handles share one frame exactly when
    /// their addresses are equal. It names the frame only while a handle
    /// keeps the frame alive; a freed frame's address can be reused.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.0).addr()
    }
}

impl std::fmt::Debug for SharedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedFrame({} handles)", self.handle_count())
    }
}

/// How a populated page is backed: privately owned bytes, or a read-only
/// [`SharedFrame`] that copy-on-writes into a private page on the first
/// write.
#[derive(Debug, Clone)]
enum PageSlot {
    /// Bytes owned by this address space alone.
    Private(Box<Page>),
    /// A shared read-only frame; the first write copies it private.
    Shared(SharedFrame),
}

impl PageSlot {
    fn bytes(&self) -> &Page {
        match self {
            PageSlot::Private(page) => page,
            PageSlot::Shared(frame) => frame.bytes(),
        }
    }

    /// The page as a frame: a shared slot's own frame, or a new frame
    /// copied from a private page.
    fn frame(&self) -> SharedFrame {
        match self {
            PageSlot::Private(page) => SharedFrame::new(page),
            PageSlot::Shared(frame) => frame.clone(),
        }
    }
}

/// The slots of a space's populated pages, numbered: the space's page
/// index maps each page base to its slot number, and a TLB entry holds
/// the number, so a hit reaches its page's bytes with one array index
/// instead of a walk of the index. A freed number goes on a free list
/// and is handed out again.
///
/// A slot is freed, or its number handed to another page, only where
/// the page's TLB entry is revoked (DESIGN §5): an entry's slot always
/// holds the entry's page.
#[derive(Debug, Clone, Default)]
struct Slab {
    slots: Vec<Option<PageSlot>>,
    free: Vec<u32>,
}

impl Slab {
    /// Stores `slot` and returns its number.
    fn insert(&mut self, slot: PageSlot) -> u32 {
        match self.free.pop() {
            Some(number) => {
                self.slots[slab_index(number)] = Some(slot);
                number
            }
            None => {
                let number = u32::try_from(self.slots.len())
                    .expect("an address space holds fewer than 2^32 populated pages");
                self.slots.push(Some(slot));
                number
            }
        }
    }

    /// Takes the slot out and frees its number.
    fn remove(&mut self, number: u32) -> PageSlot {
        let slot = self.slots[slab_index(number)]
            .take()
            .expect("an indexed page's slot is occupied");
        self.free.push(number);
        slot
    }

    #[inline]
    fn get(&self, number: u32) -> Option<&PageSlot> {
        self.slots.get(slab_index(number))?.as_ref()
    }

    #[inline]
    fn get_mut(&mut self, number: u32) -> Option<&mut PageSlot> {
        self.slots.get_mut(slab_index(number))?.as_mut()
    }

    /// The slot of an indexed page.
    fn page(&self, number: u32) -> &PageSlot {
        self.get(number)
            .expect("an indexed page's slot is occupied")
    }

    /// The bytes of a private slot, for writing; `None` for a shared one.
    #[inline]
    fn private_mut(&mut self, number: u32) -> Option<&mut Page> {
        match self.get_mut(number)? {
            PageSlot::Private(page) => Some(page),
            PageSlot::Shared(_) => None,
        }
    }
}

/// A slot number as an index into [`Slab::slots`].
#[inline]
fn slab_index(number: u32) -> usize {
    usize::try_from(number).expect("a u32 fits a usize")
}

/// Reads a little-endian value of `width` bytes at `offset` with one
/// fixed-size copy.
#[inline]
fn read_le(page: &Page, offset: usize, width: Width) -> u64 {
    fn bytes<const N: usize>(page: &Page, offset: usize) -> [u8; N] {
        page[offset..offset + N]
            .try_into()
            .expect("the range is N bytes long")
    }
    match width {
        Width::B1 => u64::from(page[offset]),
        Width::B2 => u64::from(u16::from_le_bytes(bytes(page, offset))),
        Width::B4 => u64::from(u32::from_le_bytes(bytes(page, offset))),
        Width::B8 => u64::from_le_bytes(bytes(page, offset)),
    }
}

/// Writes the low `width` bytes of `value` at `offset`, little-endian,
/// with one fixed-size copy.
#[inline]
fn write_le(page: &mut Page, offset: usize, width: Width, value: u64) {
    let bytes = value.to_le_bytes();
    match width {
        Width::B1 => page[offset] = bytes[0],
        Width::B2 => page[offset..offset + 2].copy_from_slice(&bytes[..2]),
        Width::B4 => page[offset..offset + 4].copy_from_slice(&bytes[..4]),
        Width::B8 => page[offset..offset + 8].copy_from_slice(&bytes),
    }
}

/// One page slot taken out of an [`AddressSpace`] by
/// [`AddressSpace::replace_page`], with its dirty bit: what
/// [`AddressSpace::restore_page`] needs to put the page back bit for bit.
/// Holding it holds the page's frame or bytes; no byte is copied.
#[derive(Debug)]
pub struct DisplacedPage {
    base: u64,
    slot: Option<PageSlot>,
    dirty: bool,
    /// The space's sweep count when the page was displaced.
    sweeps: u64,
}

/// What a guest access wanted to do; decides which permission bit applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Read,
    Write,
    Exec,
}

impl Access {
    /// The TLB right that lets this access skip the slow path.
    fn tlb_right(self) -> u64 {
        match self {
            Access::Read => TLB_READ,
            Access::Write => TLB_WRITE,
            Access::Exec => TLB_EXEC,
        }
    }
}

/// Entries in an address space's soft TLB: the page at `base` has entry
/// `base / PAGE_SIZE % TLB_ENTRIES`.
const TLB_ENTRIES: usize = 64;

/// A TLB entry's rights, kept in the bits below its page base.
const TLB_READ: u64 = 1;
const TLB_WRITE: u64 = 2;
const TLB_EXEC: u64 = 4;

/// The slot of a TLB entry filled for an unpopulated page.
const NO_SLOT: u32 = u32::MAX;

/// One TLB entry: `base | rights` (0 grants nothing) and the page's
/// slot number, or [`NO_SLOT`].
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    tag: u64,
    slot: u32,
}

const EMPTY_ENTRY: TlbEntry = TlbEntry {
    tag: 0,
    slot: NO_SLOT,
};

/// The soft TLB, after QEMU's softmmu TLB: a direct-mapped table that
/// names, per page, the rights a guest access wholly inside that page may
/// use without the slow path (the VMA walk, and for a write the dirty
/// and code-page bookkeeping), and where the page lives: its slot in the
/// space's [`Slab`], so a hit is one array index.
///
/// - *read*: the page's VMA is readable;
/// - *exec*: the page's VMA is executable;
/// - *write*: the page's VMA is writable, its slot is private, it is
///   already dirty, and it is not a registered code page.
///
/// An entry filled for an unpopulated page holds no slot: an access it
/// grants still takes the slow path, which refills the entry, so a page
/// populated behind the entry's back (a host write) is found there.
///
/// The table is a memo of the rest of the [`AddressSpace`], never state
/// of its own: every method that can take a right away, or free a slot,
/// revokes the entry, and the slow path re-grants whatever it finds, so
/// no access can tell whether it hit (DESIGN §5). Never checkpointed,
/// never fingerprinted.
#[derive(Debug, Clone)]
struct Tlb([TlbEntry; TLB_ENTRIES]);

impl Default for Tlb {
    fn default() -> Self {
        Tlb([EMPTY_ENTRY; TLB_ENTRIES])
    }
}

impl Tlb {
    #[inline]
    fn index(base: u64) -> usize {
        usize::try_from(base / PAGE_SIZE % TLB_ENTRIES as u64).expect("below TLB_ENTRIES")
    }

    /// The slot an access of `len` bytes at `addr` may use under `right`
    /// without the slow path: the entry must grant the right and hold a
    /// slot, and the access must stay inside its page.
    #[inline]
    fn hit(&self, addr: u64, len: usize, right: u64) -> Option<u32> {
        let base = page_base(addr);
        let entry = self.0[Self::index(base)];
        (page_offset(addr) + len <= PAGE_LEN
            && entry.tag & (!(PAGE_SIZE - 1) | right) == base | right
            && entry.slot != NO_SLOT)
            .then_some(entry.slot)
    }

    fn set(&mut self, base: u64, rights: u64, slot: Option<u32>) {
        self.0[Self::index(base)] = TlbEntry {
            tag: base | rights,
            slot: slot.unwrap_or(NO_SLOT),
        };
    }

    /// Revokes every right the table holds for the page at `base`, and
    /// forgets its slot.
    fn drop_page(&mut self, base: u64) {
        self.0[Self::index(base)] = EMPTY_ENTRY;
    }

    /// Revokes every write right.
    fn drop_write_rights(&mut self) {
        for entry in &mut self.0 {
            entry.tag &= !TLB_WRITE;
        }
    }

    fn empty(&mut self) {
        self.0 = [EMPTY_ENTRY; TLB_ENTRIES];
    }
}

/// The next code stamp to hand out. One counter serves every address
/// space in the process, so two spaces share a stamp only when one is a
/// clone of the other and neither has changed a code page since.
static NEXT_CODE_STAMP: AtomicU64 = AtomicU64::new(1);

/// Names one state of a space's code-generation table across every
/// space in the process: a new space takes a fresh stamp, and so does
/// every change of a registered code page's generation; a clone keeps
/// its source's, whose table it copies. A block that validated under a
/// stamp still validates while its space reads that stamp, whichever
/// space it validated on, so a cache carried onto a restored space
/// revalidates there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CodeStamp(u64);

impl CodeStamp {
    fn fresh() -> Self {
        // Relaxed: a stamp publishes no other data; the read-modify-write
        // alone keeps every stamp handed out distinct.
        CodeStamp(NEXT_CODE_STAMP.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for CodeStamp {
    fn default() -> Self {
        CodeStamp::fresh()
    }
}

/// A process's virtual address space: a sorted list of [`Vma`]s plus a
/// sparse page store.
///
/// Pages are materialised lazily on first write; reading an unpopulated
/// page inside a mapped VMA yields zeros. The populated/unpopulated
/// distinction is exactly what CRIU's `pagemap` image records, so the
/// checkpoint layer can reproduce it faithfully.
///
/// The space additionally keeps a **dirty-page bitmap** (the soft-dirty
/// analogue incremental checkpointing relies on): every write — guest
/// stores, the loader, restore, rewriter patches — marks the touched
/// pages dirty, and the checkpoint layer sweeps the bitmap with
/// [`mark_clean`](AddressSpace::mark_clean) once a dump has established
/// a new baseline. `dirty_pages() ⊆ populated_pages()` always holds:
/// unmapping or dropping a page clears its dirty bit too.
///
/// Guest loads, stores and fetches go through a soft TLB, a per-page memo
/// of what the permission walk and the dirty and code-page bookkeeping
/// would decide. It is invisible: every result, byte, dirty bit and code
/// generation is what the uncached path would produce (DESIGN §5, §11).
///
/// ```
/// use dynacut_vm::{AddressSpace, Perms, PAGE_SIZE};
///
/// # fn main() -> Result<(), dynacut_vm::VmError> {
/// let mut space = AddressSpace::new();
/// space.map(0x1000, 2 * PAGE_SIZE, Perms::RW, "heap")?;
/// space.write_unchecked(0x1800, b"hello");
/// assert!(space.page_present(0x1800));
/// assert!(!space.page_present(0x2000), "second page still lazy");
/// assert_eq!(space.dirty_pages().collect::<Vec<_>>(), vec![0x1000]);
/// space.mark_clean();
/// assert_eq!(space.dirty_page_count(), 0, "swept after a dump");
/// space.protect(0x2000, PAGE_SIZE, Perms::R)?;
/// assert_eq!(space.vmas().len(), 2, "mprotect split the VMA");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    vmas: Vec<Vma>,
    /// The populated pages in address order: page base to slot number.
    pages: BTreeMap<u64, u32>,
    /// Where the populated pages' slots live.
    slab: Slab,
    dirty: BTreeSet<u64>,
    /// Sweeps of the dirty bitmap so far: whether one happened between a
    /// [`replace_page`](AddressSpace::replace_page) and its
    /// [`restore_page`](AddressSpace::restore_page).
    sweeps: u64,
    /// Copy-on-write faults taken: how many shared pages this space has
    /// privatised because of a write. Host-side accounting only — never
    /// checkpointed, never fingerprinted.
    cow_faults: u64,
    /// Generation counters for pages the block cache has decoded from
    /// (see [`note_code_page`](AddressSpace::note_code_page)). Entries
    /// are created lazily and **never removed** — a page that is
    /// unmapped and re-mapped keeps its bumped generation, so no block
    /// cached before the unmap can ever revalidate. Excluded from
    /// checkpoints and fingerprints: purely host-side cache metadata.
    code_gen: BTreeMap<u64, u64>,
    /// Names the current state of `code_gen` across spaces: a dispatch,
    /// and a running block after a store, skip a block's revalidation
    /// while this reads the stamp the block last validated under.
    code_stamp: CodeStamp,
    /// The soft TLB that guest loads, stores and fetches share.
    tlb: Tlb,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `[start, start+len)` with the given permissions.
    ///
    /// # Errors
    ///
    /// Fails if the range is not page-aligned or overlaps an existing VMA.
    pub fn map(&mut self, start: u64, len: u64, perms: Perms, name: &str) -> Result<(), VmError> {
        if !start.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned(start));
        }
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned(len));
        }
        let end = start.checked_add(len).ok_or(VmError::BadAccess {
            addr: start,
            kind: "mmap",
        })?;
        if self.vmas.iter().any(|vma| vma.overlaps(start, end)) {
            return Err(VmError::MappingOverlap { start, len });
        }
        self.vmas.push(Vma::new(start, end, perms, name));
        self.vmas.sort_by_key(|vma| vma.start);
        // No TLB revocation: an entry only names a page inside a VMA, and
        // the new VMA overlaps none.
        Ok(())
    }

    /// Unmaps every whole page intersecting `[start, start+len)`, splitting
    /// VMAs as needed and discarding page contents.
    ///
    /// # Errors
    ///
    /// Fails if the range is not page-aligned.
    pub fn unmap(&mut self, start: u64, len: u64) -> Result<(), VmError> {
        if !start.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned(start | len));
        }
        let end = start.checked_add(len).ok_or(VmError::BadAccess {
            addr: start,
            kind: "munmap",
        })?;
        let mut next: Vec<Vma> = Vec::with_capacity(self.vmas.len() + 1);
        for vma in self.vmas.drain(..) {
            if !vma.overlaps(start, end) {
                next.push(vma);
                continue;
            }
            if vma.start < start {
                next.push(Vma::new(vma.start, start, vma.perms, &vma.name));
            }
            if vma.end > end {
                next.push(Vma::new(end, vma.end, vma.perms, &vma.name));
            }
        }
        next.sort_by_key(|vma| vma.start);
        self.vmas = next;
        let doomed: Vec<(u64, u32)> = self
            .pages
            .range(start..end)
            .map(|(&base, &slot)| (base, slot))
            .collect();
        for (base, slot) in doomed {
            self.pages.remove(&base);
            self.slab.remove(slot);
            self.dirty.remove(&base);
        }
        self.bump_code_gens(start, end);
        self.tlb.empty();
        Ok(())
    }

    /// Changes the permissions of `[start, start+len)`, splitting VMAs as
    /// needed.
    ///
    /// # Errors
    ///
    /// Fails if the range is unaligned or not fully covered by VMAs.
    pub fn protect(&mut self, start: u64, len: u64, perms: Perms) -> Result<(), VmError> {
        if !start.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned(start | len));
        }
        let end = start.checked_add(len).ok_or(VmError::BadAccess {
            addr: start,
            kind: "mprotect",
        })?;
        // Verify coverage first so the operation is atomic.
        let mut cursor = start;
        for vma in self.vmas.iter().filter(|v| v.overlaps(start, end)) {
            if vma.start > cursor {
                return Err(VmError::BadAccess {
                    addr: cursor,
                    kind: "mprotect",
                });
            }
            cursor = cursor.max(vma.end);
        }
        if cursor < end {
            return Err(VmError::BadAccess {
                addr: cursor,
                kind: "mprotect",
            });
        }
        let mut next: Vec<Vma> = Vec::with_capacity(self.vmas.len() + 2);
        for vma in self.vmas.drain(..) {
            if !vma.overlaps(start, end) {
                next.push(vma);
                continue;
            }
            if vma.start < start {
                next.push(Vma::new(vma.start, start, vma.perms, &vma.name));
            }
            let mid_start = vma.start.max(start);
            let mid_end = vma.end.min(end);
            next.push(Vma::new(mid_start, mid_end, perms, &vma.name));
            if vma.end > end {
                next.push(Vma::new(end, vma.end, vma.perms, &vma.name));
            }
        }
        next.sort_by_key(|vma| vma.start);
        self.vmas = next;
        self.bump_code_gens(start, end);
        self.tlb.empty();
        Ok(())
    }

    /// The VMA containing `addr`, if any.
    pub fn vma_at(&self, addr: u64) -> Option<&Vma> {
        match self.vmas.binary_search_by_key(&addr, |vma| vma.start) {
            Ok(i) => Some(&self.vmas[i]),
            Err(0) => None,
            Err(i) => {
                let vma = &self.vmas[i - 1];
                vma.contains(addr).then_some(vma)
            }
        }
    }

    /// All VMAs in address order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Finds `len` bytes of unmapped space at or above `hint`,
    /// page-aligned, or `None` if no such range fits below the top of
    /// the address space.
    pub fn find_free(&self, hint: u64, len: u64) -> Option<u64> {
        let len = checked_page_align(len)?;
        let mut candidate = checked_page_align(hint)?;
        loop {
            let end = candidate.checked_add(len)?;
            match self.vmas.iter().find(|vma| vma.overlaps(candidate, end)) {
                None => return Some(candidate),
                Some(vma) => candidate = vma.end,
            }
        }
    }

    fn check(&self, addr: u64, len: u64, access: Access) -> Result<(), VmError> {
        let mut cursor = addr;
        let end = addr.checked_add(len).ok_or(VmError::BadAccess {
            addr,
            kind: access_name(access),
        })?;
        while cursor < end {
            let vma = self.vma_at(cursor).ok_or(VmError::BadAccess {
                addr: cursor,
                kind: access_name(access),
            })?;
            let allowed = match access {
                Access::Read => vma.perms.read,
                Access::Write => vma.perms.write,
                Access::Exec => vma.perms.exec,
            };
            if !allowed {
                return Err(VmError::BadAccess {
                    addr: cursor,
                    kind: access_name(access),
                });
            }
            cursor = vma.end.min(end);
        }
        Ok(())
    }

    /// Guest load of a `width`-byte little-endian value (permission-
    /// checked, through the soft TLB). A hit is one array index and one
    /// fixed-size copy. Always inlined, like the block loop's
    /// [`exec_insn`](crate::interp::exec_insn) it runs in; a miss calls
    /// out.
    #[inline(always)]
    pub(crate) fn load(&mut self, addr: u64, width: Width) -> Result<u64, VmError> {
        if let Some(page) = self
            .tlb
            .hit(addr, width.bytes(), TLB_READ)
            .and_then(|slot| self.slab.get(slot))
        {
            return Ok(read_le(page.bytes(), page_offset(addr), width));
        }
        let mut buf = [0u8; 8];
        self.read_slow(addr, &mut buf[..width.bytes()], Access::Read)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Guest store of the low `width` bytes of `value`, little-endian
    /// (permission-checked, through the soft TLB). A hit is one array
    /// index and one fixed-size copy, and still writes only through a
    /// slot it finds private: a stale entry can never write into a
    /// shared frame. Always inlined, like [`load`](Self::load).
    #[inline(always)]
    pub(crate) fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), VmError> {
        if let Some(page) = self
            .tlb
            .hit(addr, width.bytes(), TLB_WRITE)
            .and_then(|slot| self.slab.private_mut(slot))
        {
            write_le(page, page_offset(addr), width, value);
            return Ok(());
        }
        self.write_slow(addr, &value.to_le_bytes()[..width.bytes()])
    }

    /// Guest read (permission-checked, through the soft TLB).
    #[inline]
    pub(crate) fn read_checked(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), VmError> {
        self.read_through_tlb(addr, buf, Access::Read)
    }

    /// Instruction fetch (permission-checked, through the soft TLB).
    #[inline]
    pub(crate) fn fetch_exec(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), VmError> {
        self.read_through_tlb(addr, buf, Access::Exec)
    }

    #[inline]
    fn read_through_tlb(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        access: Access,
    ) -> Result<(), VmError> {
        if let Some(page) = self
            .tlb
            .hit(addr, buf.len(), access.tlb_right())
            .and_then(|slot| self.slab.get(slot))
        {
            let offset = page_offset(addr);
            buf.copy_from_slice(&page.bytes()[offset..offset + buf.len()]);
            return Ok(());
        }
        self.read_slow(addr, buf, access)
    }

    /// The slow path of a guest read or fetch: the permission walk, the
    /// copy, and a refill of the page's entry with its slot. An access
    /// inside one page looks the page up once.
    fn read_slow(&mut self, addr: u64, buf: &mut [u8], access: Access) -> Result<(), VmError> {
        self.check(addr, buf.len() as u64, access)?;
        let base = page_base(addr);
        let slot = self.pages.get(&base).copied();
        self.tlb_fill(base, slot);
        let offset = page_offset(addr);
        if offset + buf.len() > PAGE_LEN {
            self.copy_out(addr, buf);
        } else if let Some(slot) = slot {
            buf.copy_from_slice(&self.slab.page(slot).bytes()[offset..offset + buf.len()]);
        } else {
            buf.fill(0);
        }
        Ok(())
    }

    /// Guest read of `len` bytes into a fresh buffer (permission-checked).
    /// The range is checked *before* the buffer is allocated, so a wild
    /// guest length fails with [`VmError::BadAccess`] instead of asking
    /// the host allocator for it.
    pub(crate) fn read_vec_checked(&self, addr: u64, len: u64) -> Result<Vec<u8>, VmError> {
        self.check(addr, len, Access::Read)?;
        let len = usize::try_from(len).map_err(|_| VmError::BadAccess { addr, kind: "read" })?;
        let mut buf = vec![0u8; len];
        self.copy_out(addr, &mut buf);
        Ok(buf)
    }

    /// Guest write (permission-checked, through the soft TLB). A write
    /// hit skips the VMA walk, the dirty insert and the code-page lookup,
    /// and still writes only through a slot it finds private: a stale
    /// entry can never write into a shared frame.
    #[inline]
    pub(crate) fn write_checked(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        if let Some(page) = self
            .tlb
            .hit(addr, bytes.len(), TLB_WRITE)
            .and_then(|slot| self.slab.private_mut(slot))
        {
            let offset = page_offset(addr);
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
            return Ok(());
        }
        self.write_slow(addr, bytes)
    }

    /// The slow path of a guest write: the permission walk, the write
    /// with its dirty and code-page bookkeeping, and a refill of the
    /// page's entry with the slot the write found or populated.
    fn write_slow(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        self.check(addr, bytes.len() as u64, Access::Write)?;
        let base = page_base(addr);
        let slot = match self.copy_in(addr, bytes) {
            Some(slot) => Some(slot),
            None => self.pages.get(&base).copied(),
        };
        self.tlb_fill(base, slot);
        Ok(())
    }

    /// Gives the page at `base`, whose slot is `slot`, every right the
    /// slow path grants it now; an access that passed the slow path
    /// calls this.
    fn tlb_fill(&mut self, base: u64, slot: Option<u32>) {
        self.tlb.set(base, self.page_rights(base, slot), slot);
    }

    /// The TLB rights the page at `base`, whose slot is `slot`, may hold
    /// now (see [`Tlb`]).
    fn page_rights(&self, base: u64, slot: Option<u32>) -> u64 {
        let Some(vma) = self.vma_at(base) else {
            return 0;
        };
        let mut rights = 0;
        if vma.perms.read {
            rights |= TLB_READ;
        }
        if vma.perms.exec {
            rights |= TLB_EXEC;
        }
        if vma.perms.write
            && matches!(
                slot.map(|slot| self.slab.page(slot)),
                Some(PageSlot::Private(_))
            )
            && self.dirty.contains(&base)
            && !self.code_gen.contains_key(&base)
        {
            rights |= TLB_WRITE;
        }
        rights
    }

    /// Empties the soft TLB, so that every access until the next fill
    /// takes the slow path. The uncached interpreter, the reference the
    /// block cache is checked against, calls this before every
    /// instruction.
    pub(crate) fn empty_tlb(&mut self) {
        self.tlb.empty();
    }

    /// Host-side read ignoring permissions (checkpointing, debuggers).
    /// Unmapped bytes read as zero.
    pub fn read_unchecked(&self, addr: u64, buf: &mut [u8]) {
        self.copy_out(addr, buf);
    }

    /// Host-side write ignoring permissions (loader, restore, rewriter).
    pub fn write_unchecked(&mut self, addr: u64, bytes: &[u8]) {
        self.copy_in(addr, bytes);
    }

    #[inline]
    fn copy_out(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let cursor = addr + done as u64;
            let in_page = page_offset(cursor);
            let chunk = (PAGE_LEN - in_page).min(buf.len() - done);
            match self.pages.get(&page_base(cursor)) {
                Some(&slot) => {
                    let page = self.slab.page(slot).bytes();
                    buf[done..done + chunk].copy_from_slice(&page[in_page..in_page + chunk]);
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
    }

    /// Writes `bytes` at `addr`, populating, privatising and dirtying
    /// each page it touches with one index operation per page, and
    /// returns the slot of the page containing `addr` (none for an
    /// empty write). A first touch takes no right away, so it revokes
    /// nothing: an entry filled while the page was unpopulated holds no
    /// slot, and the slow path it sends its accesses to finds the page.
    fn copy_in(&mut self, addr: u64, bytes: &[u8]) -> Option<u32> {
        let mut first = None;
        let mut done = 0usize;
        while done < bytes.len() {
            let cursor = addr + done as u64;
            let base = page_base(cursor);
            let in_page = page_offset(cursor);
            let chunk = (PAGE_LEN - in_page).min(bytes.len() - done);
            let number = *self
                .pages
                .entry(base)
                .or_insert_with(|| self.slab.insert(PageSlot::Private(Box::new([0; PAGE_LEN]))));
            let slot = self
                .slab
                .get_mut(number)
                .expect("an indexed page's slot is occupied");
            // Copy-on-write: the first write to a shared frame privatises
            // the whole page, leaving the frame (and every other space
            // mapping it) untouched. The slot keeps its number.
            if let PageSlot::Shared(frame) = slot {
                *slot = PageSlot::Private(Box::new(*frame.bytes()));
                self.cow_faults += 1;
            }
            let PageSlot::Private(page) = slot else {
                unreachable!("slot privatised above")
            };
            page[in_page..in_page + chunk].copy_from_slice(&bytes[done..done + chunk]);
            self.dirty.insert(base);
            self.bump_code_gen(base);
            first.get_or_insert(number);
            done += chunk;
        }
        first
    }

    /// Puts `slot` at the page at `base`, or drops the page when `slot`
    /// is `None`, with one index operation, and hands back the slot it
    /// displaced. A page that stays populated keeps its slot number.
    /// Every caller revokes the page's TLB entry.
    fn set_slot(&mut self, base: u64, slot: Option<PageSlot>) -> Option<PageSlot> {
        match (self.pages.entry(base), slot) {
            (btree_map::Entry::Occupied(entry), Some(slot)) => Some(std::mem::replace(
                self.slab
                    .get_mut(*entry.get())
                    .expect("an indexed page's slot is occupied"),
                slot,
            )),
            (btree_map::Entry::Occupied(entry), None) => Some(self.slab.remove(entry.remove())),
            (btree_map::Entry::Vacant(entry), Some(slot)) => {
                entry.insert(self.slab.insert(slot));
                None
            }
            (btree_map::Entry::Vacant(_), None) => None,
        }
    }

    /// Installs a [`SharedFrame`] as the backing of the page containing
    /// `addr`, replacing any existing contents.
    ///
    /// This is the zero-copy restore primitive: the page reads the
    /// frame's bytes without copying them, and the first guest write
    /// copy-on-writes into a private page. The install has the same
    /// guest-visible effect as `write_unchecked(base, frame.bytes())` —
    /// it marks the page dirty and bumps a registered code-page
    /// generation — so fingerprints cannot distinguish a shared-backed
    /// page from one written byte for byte.
    pub fn install_shared_page(&mut self, addr: u64, frame: SharedFrame) {
        let base = page_base(addr);
        self.set_slot(base, Some(PageSlot::Shared(frame)));
        self.dirty.insert(base);
        self.bump_code_gen(base);
        self.tlb.drop_page(base);
    }

    /// Installs each `(address, frame)` of `pages` as
    /// [`install_shared_page`](AddressSpace::install_shared_page) does,
    /// in order. Into a space with no populated page, pages given in
    /// ascending address order (as a restore gives them) go in one pass:
    /// the index and the dirty bitmap are built from sorted runs, not
    /// inserted page by page.
    pub fn install_shared_pages(&mut self, pages: impl IntoIterator<Item = (u64, SharedFrame)>) {
        let pages: Vec<(u64, SharedFrame)> = pages
            .into_iter()
            .map(|(addr, frame)| (page_base(addr), frame))
            .collect();
        if !self.pages.is_empty() || !pages.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            for (base, frame) in pages {
                self.install_shared_page(base, frame);
            }
            return;
        }
        // No page is populated, so no slot is live and none is dirty, and
        // no TLB entry holds a slot or a write right: none is revoked.
        self.slab = Slab::default();
        self.slab.slots.reserve(pages.len());
        let index: Vec<(u64, u32)> = pages
            .into_iter()
            .map(|(base, frame)| (base, self.slab.insert(PageSlot::Shared(frame))))
            .collect();
        for &(base, _) in &index {
            self.bump_code_gen(base);
        }
        self.dirty = index.iter().map(|&(base, _)| base).collect();
        self.pages = index.into_iter().collect();
    }

    /// Backs the page containing `addr` with `frame`, or drops it when
    /// `frame` is `None`, and hands back the slot it displaced with its
    /// dirty bit. An install has [`install_shared_page`]'s effects, a
    /// drop [`drop_page`]'s. [`restore_page`] puts the displaced slot
    /// back exactly, so a host-side patch can be undone without cloning
    /// the space; only its dirty bit is set if the bitmap was swept in
    /// between.
    ///
    /// [`install_shared_page`]: AddressSpace::install_shared_page
    /// [`drop_page`]: AddressSpace::drop_page
    /// [`restore_page`]: AddressSpace::restore_page
    pub fn replace_page(&mut self, addr: u64, frame: Option<SharedFrame>) -> DisplacedPage {
        let base = page_base(addr);
        // Moved out, never cloned: a private page's bytes stay where
        // they are.
        let installs = frame.is_some();
        let slot = self.set_slot(base, frame.map(PageSlot::Shared));
        let dirty = if installs {
            !self.dirty.insert(base)
        } else {
            self.dirty.remove(&base)
        };
        self.bump_code_gen(base);
        self.tlb.drop_page(base);
        DisplacedPage {
            base,
            slot,
            dirty,
            sweeps: self.sweeps,
        }
    }

    /// Puts back a slot [`replace_page`](AddressSpace::replace_page)
    /// displaced: the same backing (a shared frame stays shared) and the
    /// same dirty bit, unless the bitmap was swept in between. That sweep
    /// took the replacing page as the baseline, which the page put back
    /// may differ from, so a populated page put back across a sweep reads
    /// dirty. A registered code page's generation is bumped, as for any
    /// other change of its bytes.
    pub fn restore_page(&mut self, page: DisplacedPage) {
        let DisplacedPage {
            base,
            slot,
            dirty,
            sweeps,
        } = page;
        let dirty = slot.is_some() && (dirty || sweeps != self.sweeps);
        self.set_slot(base, slot);
        if dirty {
            self.dirty.insert(base);
        } else {
            self.dirty.remove(&base);
        }
        self.bump_code_gen(base);
        self.tlb.drop_page(base);
    }

    /// Whether the page containing `addr` is currently backed by a
    /// shared frame (no copy-on-write fault taken yet).
    pub fn page_shared(&self, addr: u64) -> bool {
        matches!(self.slot_at(addr), Some(PageSlot::Shared(_)))
    }

    /// Number of populated pages still backed by shared frames.
    pub fn shared_page_count(&self) -> usize {
        self.slab
            .slots
            .iter()
            .filter(|slot| matches!(slot, Some(PageSlot::Shared(_))))
            .count()
    }

    /// The slot of the page containing `addr`, if it is populated.
    fn slot_at(&self, addr: u64) -> Option<&PageSlot> {
        let &slot = self.pages.get(&page_base(addr))?;
        Some(self.slab.page(slot))
    }

    /// Copy-on-write faults this space has taken (pages privatised by a
    /// write to a shared frame). Multiply by [`PAGE_SIZE`] for the bytes
    /// physically copied by faulting.
    pub fn cow_fault_count(&self) -> u64 {
        self.cow_faults
    }

    /// Whether the page containing `addr` has been populated (written).
    pub fn page_present(&self, addr: u64) -> bool {
        self.pages.contains_key(&page_base(addr))
    }

    /// The bytes of the page containing `addr`, if it is populated.
    pub fn page_bytes(&self, addr: u64) -> Option<&[u8]> {
        self.slot_at(addr).map(|slot| &slot.bytes()[..])
    }

    /// Iterates over populated pages as `(page_base, bytes)`.
    pub fn populated_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages
            .iter()
            .map(|(&base, &slot)| (base, &self.slab.page(slot).bytes()[..]))
    }

    /// Iterates over populated pages as `(page_base, frame)`, the form a
    /// checkpoint holds them in: a page backed by a shared frame yields
    /// that frame, no byte copied; a private page yields a new frame
    /// copied from it.
    pub fn page_frames(&self) -> impl Iterator<Item = (u64, SharedFrame)> + '_ {
        self.pages
            .iter()
            .map(|(&base, &slot)| (base, self.slab.page(slot).frame()))
    }

    /// Number of populated pages.
    pub fn populated_page_count(&self) -> usize {
        self.pages.len()
    }

    /// Drops the backing page (if populated) so its contents read as zero
    /// again. The mapping itself remains. Used by the rewriter's
    /// wipe-policy analogue of `madvise(MADV_DONTNEED)`.
    pub fn drop_page(&mut self, addr: u64) {
        let base = page_base(addr);
        self.set_slot(base, None);
        self.dirty.remove(&base);
        self.bump_code_gen(base);
        self.tlb.drop_page(base);
    }

    /// Iterates over the bases of pages written since the last
    /// [`mark_clean`](AddressSpace::mark_clean) sweep, in address order.
    ///
    /// Every dirty page is populated (`dirty_pages() ⊆ populated_pages()`):
    /// unmapping or dropping a page clears its dirty bit.
    pub fn dirty_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.iter().copied()
    }

    /// Number of dirty pages.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.len()
    }

    /// Whether the page containing `addr` is dirty.
    pub fn page_dirty(&self, addr: u64) -> bool {
        self.dirty.contains(&page_base(addr))
    }

    /// Clears the dirty bitmap. The checkpoint layer calls this once a
    /// dump has established a new on-disk baseline, so the next
    /// incremental dump only carries pages written after this point.
    pub fn mark_clean(&mut self) {
        self.dirty.clear();
        self.sweeps += 1;
        self.tlb.drop_write_rights();
    }

    /// Re-marks the page containing `addr` dirty — the rollback inverse
    /// of [`mark_clean`](AddressSpace::mark_clean), used when a failed
    /// customization must restore the dirty bitmap a pre-dump already
    /// swept. A no-op for unpopulated pages, preserving
    /// `dirty_pages() ⊆ populated_pages()`.
    pub fn mark_dirty(&mut self, addr: u64) {
        let base = page_base(addr);
        if self.pages.contains_key(&base) {
            self.dirty.insert(base);
        }
    }

    /// Registers the page containing `addr` as holding cached code and
    /// returns its current generation. The block cache calls this for
    /// every page a decoded block spans; from then on any mutation of
    /// the page — stores, host patches, unmap, mprotect, page drops —
    /// bumps the generation, invalidating every block that snapshotted
    /// the old value. Entries are never removed (see the field docs).
    pub fn note_code_page(&mut self, addr: u64) -> u64 {
        *self.code_gen_slot(page_base(addr))
    }

    /// The generation of the page at `base`, registering the page (and
    /// revoking its TLB write right) if it is not a code page yet.
    fn code_gen_slot(&mut self, base: u64) -> &mut u64 {
        match self.code_gen.entry(base) {
            btree_map::Entry::Occupied(slot) => slot.into_mut(),
            btree_map::Entry::Vacant(slot) => {
                self.tlb.drop_page(base);
                slot.insert(0)
            }
        }
    }

    /// The current generation of the page containing `addr`: 0 until
    /// the page is first registered via
    /// [`note_code_page`](AddressSpace::note_code_page), bumped on every
    /// mutation thereafter.
    pub fn code_page_gen(&self, addr: u64) -> u64 {
        self.code_gen.get(&page_base(addr)).copied().unwrap_or(0)
    }

    /// The space's code stamp: equal stamps, on this space or any other,
    /// name equal code-generation tables, so a block that validated
    /// under the stamp this returns still validates.
    #[inline]
    pub(crate) fn code_stamp(&self) -> u64 {
        self.code_stamp.0
    }

    /// Bumps the generation of the page at `base` if it is a registered
    /// code page.
    fn bump_code_gen(&mut self, base: u64) {
        if let Some(gen) = self.code_gen.get_mut(&base) {
            *gen += 1;
            self.code_stamp = CodeStamp::fresh();
        }
    }

    /// Bumps the generation of every registered code page intersecting
    /// `[start, end)`.
    fn bump_code_gens(&mut self, start: u64, end: u64) {
        let mut bumped = false;
        for (_, gen) in self.code_gen.range_mut(page_base(start)..end) {
            *gen += 1;
            bumped = true;
        }
        if bumped {
            self.code_stamp = CodeStamp::fresh();
        }
    }

    /// Every registered code page and its current generation, in
    /// address order.
    pub fn code_pages(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.code_gen.iter().map(|(&base, &gen)| (base, gen))
    }

    /// Seeds the generation of the code page containing `addr` to *at
    /// least* `gen`, registering the page if needed. Seeding only ever
    /// raises the generation: the safe failure direction is a block
    /// that spuriously re-decodes, never one that validates against
    /// changed bytes.
    pub fn seed_code_page_gen(&mut self, addr: u64, gen: u64) {
        let slot = self.code_gen_slot(page_base(addr));
        let raised = *slot < gen;
        *slot = (*slot).max(gen);
        if raised {
            self.code_stamp = CodeStamp::fresh();
        }
    }
}

fn access_name(access: Access) -> &'static str {
    match access {
        Access::Read => "read",
        Access::Write => "write",
        Access::Exec => "exec",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with(start: u64, len: u64, perms: Perms) -> AddressSpace {
        let mut space = AddressSpace::new();
        space.map(start, len, perms, "test").unwrap();
        space
    }

    /// `restore_page` puts back exactly what `replace_page` displaced: a
    /// dirty private page keeps its bytes and dirty bit, a clean shared
    /// page stays shared and clean, and an empty slot empties again.
    #[test]
    fn restore_page_puts_back_what_replace_page_displaced() {
        let mut space = space_with(0x1000, 3 * PAGE_SIZE, Perms::RW);
        space.write_unchecked(0x1000, b"private");
        let frame = SharedFrame::new(&[7; PAGE_LEN]);
        space.install_shared_page(0x2000, frame.clone());
        space.mark_clean();
        space.mark_dirty(0x1000);
        let before: Vec<(u64, Vec<u8>)> = space
            .populated_pages()
            .map(|(base, bytes)| (base, bytes.to_vec()))
            .collect();
        let displaced = [
            space.replace_page(0x1000, Some(frame.clone())),
            space.replace_page(0x2000, None),
            space.replace_page(0x3000, Some(frame)),
        ];
        assert!(space.page_shared(0x1000) && !space.page_present(0x2000));
        for page in displaced.into_iter().rev() {
            space.restore_page(page);
        }
        let after: Vec<(u64, Vec<u8>)> = space
            .populated_pages()
            .map(|(base, bytes)| (base, bytes.to_vec()))
            .collect();
        assert_eq!(after, before);
        assert_eq!(space.dirty_pages().collect::<Vec<_>>(), vec![0x1000]);
        assert!(!space.page_shared(0x1000) && space.page_shared(0x2000));
        assert_eq!(space.cow_fault_count(), 0, "nothing was copied");
    }

    /// A page put back across a sweep reads dirty: the sweep took the
    /// replacing frame as the baseline, and the bytes put back differ
    /// from it. An empty slot put back stays unpopulated and clean
    /// (dirty ⊆ populated).
    #[test]
    fn restore_page_across_a_sweep_reads_dirty() {
        let mut space = space_with(0x1000, 2 * PAGE_SIZE, Perms::RW);
        space.write_unchecked(0x1000, b"baseline");
        space.mark_clean();
        let frame = SharedFrame::new(&[7; PAGE_LEN]);
        let displaced = [
            space.replace_page(0x1000, Some(frame.clone())),
            space.replace_page(0x2000, Some(frame)),
        ];
        space.mark_clean();
        for page in displaced.into_iter().rev() {
            space.restore_page(page);
        }
        assert_eq!(&space.page_bytes(0x1000).unwrap()[..8], b"baseline");
        assert!(!space.page_present(0x2000));
        assert_eq!(
            space.dirty_pages().collect::<Vec<_>>(),
            vec![0x1000],
            "the page put back changed since the sweep"
        );
    }

    /// A page put back clean loses the write right a store to the
    /// replacing frame earned: the next store through the TLB must still
    /// dirty it.
    #[test]
    fn restore_page_revokes_the_write_right() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RW);
        space.write_checked(0x1000, &[1]).unwrap();
        space.mark_clean();
        let displaced = space.replace_page(0x1000, Some(SharedFrame::zeroed()));
        space.write_checked(0x1000, &[2]).unwrap();
        space.restore_page(displaced);
        assert!(!space.page_dirty(0x1000), "put back clean");
        space.write_checked(0x1000, &[3]).unwrap();
        assert!(
            space.page_dirty(0x1000),
            "the store dirtied the page put back"
        );
    }

    /// The one-pass install into an empty space, and the page-by-page
    /// one it falls back to, leave what installing each page in turn
    /// leaves: bytes, backings, dirty bits and code generations. An entry
    /// a read filled before the install does not hide the new bytes.
    #[test]
    fn install_shared_pages_matches_one_install_per_page() {
        let frames: Vec<(u64, SharedFrame)> = (0..4u8)
            .map(|i| {
                (
                    0x1000 + u64::from(i) * PAGE_SIZE,
                    SharedFrame::new(&[i + 1; PAGE_LEN]),
                )
            })
            .collect();
        let fresh = || {
            let mut space = space_with(0x1000, 4 * PAGE_SIZE, Perms::RW);
            space.note_code_page(0x2000);
            space.read_checked(0x1000, &mut [0; 4]).unwrap();
            space
        };
        let observe = |space: &AddressSpace| {
            let pages: Vec<(u64, Vec<u8>, bool)> = space
                .populated_pages()
                .map(|(base, bytes)| (base, bytes.to_vec(), space.page_shared(base)))
                .collect();
            let dirty: Vec<u64> = space.dirty_pages().collect();
            let code: Vec<(u64, u64)> = space.code_pages().collect();
            (pages, dirty, code)
        };
        let mut one_by_one = fresh();
        for (base, frame) in &frames {
            one_by_one.install_shared_page(*base, frame.clone());
        }
        let mut at_once = fresh();
        at_once.install_shared_pages(frames.iter().cloned());
        assert_eq!(observe(&at_once), observe(&one_by_one));
        let mut buf = [0; 4];
        at_once.read_checked(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [1; 4], "the read after the install sees the frame");
        // Into a populated space, or out of order: one page at a time.
        let mut populated = fresh();
        populated.write_unchecked(0x4000, &[9]);
        populated.install_shared_pages(frames.iter().rev().cloned());
        let mut expected = fresh();
        expected.write_unchecked(0x4000, &[9]);
        for (base, frame) in frames.iter().rev() {
            expected.install_shared_page(*base, frame.clone());
        }
        assert_eq!(observe(&populated), observe(&expected));
    }

    #[test]
    fn map_rejects_unaligned_and_overlap() {
        let mut space = AddressSpace::new();
        assert!(matches!(
            space.map(0x1001, PAGE_SIZE, Perms::RW, "x"),
            Err(VmError::Unaligned(_))
        ));
        assert!(matches!(
            space.map(0x1000, 100, Perms::RW, "x"),
            Err(VmError::Unaligned(_))
        ));
        space.map(0x1000, 2 * PAGE_SIZE, Perms::RW, "a").unwrap();
        assert!(matches!(
            space.map(0x2000, PAGE_SIZE, Perms::RW, "b"),
            Err(VmError::MappingOverlap { .. })
        ));
    }

    #[test]
    fn read_of_unwritten_page_is_zero() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RW);
        let mut buf = [0xFFu8; 8];
        space.read_checked(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
        assert!(!space.page_present(0x1000));
    }

    #[test]
    fn write_then_read_round_trips_across_pages() {
        let mut space = space_with(0x1000, 2 * PAGE_SIZE, Perms::RW);
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        space.write_checked(0x1800, &data).unwrap();
        let mut buf = vec![0u8; 5000];
        space.read_checked(0x1800, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(space.populated_page_count(), 2);
    }

    #[test]
    fn permissions_are_enforced() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::R);
        let mut buf = [0u8; 4];
        assert!(space.read_checked(0x1000, &mut buf).is_ok());
        assert!(matches!(
            space.write_checked(0x1000, &[1]),
            Err(VmError::BadAccess { kind: "write", .. })
        ));
        assert!(matches!(
            space.fetch_exec(0x1000, &mut buf),
            Err(VmError::BadAccess { kind: "exec", .. })
        ));
    }

    #[test]
    fn unmapped_access_faults() {
        let mut space = AddressSpace::new();
        let mut buf = [0u8; 1];
        assert!(space.read_checked(0x5000, &mut buf).is_err());
    }

    #[test]
    fn access_spanning_two_vmas_checks_both() {
        let mut space = AddressSpace::new();
        space.map(0x1000, PAGE_SIZE, Perms::RW, "a").unwrap();
        space.map(0x2000, PAGE_SIZE, Perms::R, "b").unwrap();
        // Write across the boundary must fail because `b` is read-only.
        let err = space.write_checked(0x1FFC, &[0; 8]).unwrap_err();
        assert!(matches!(err, VmError::BadAccess { addr: 0x2000, .. }));
        // Read across the boundary is fine.
        let mut buf = [0u8; 8];
        assert!(space.read_checked(0x1FFC, &mut buf).is_ok());
    }

    #[test]
    fn unmap_splits_vma_and_drops_pages() {
        let mut space = space_with(0x1000, 3 * PAGE_SIZE, Perms::RW);
        space.write_checked(0x2000, &[7; 16]).unwrap();
        space.unmap(0x2000, PAGE_SIZE).unwrap();
        assert_eq!(space.vmas().len(), 2);
        assert!(space.vma_at(0x2000).is_none());
        assert!(space.vma_at(0x1000).is_some());
        assert!(space.vma_at(0x3000).is_some());
        assert!(!space.page_present(0x2000));
        // Re-map and the old contents are gone.
        space.map(0x2000, PAGE_SIZE, Perms::RW, "fresh").unwrap();
        let mut buf = [0xFFu8; 16];
        space.read_checked(0x2000, &mut buf).unwrap();
        assert_eq!(buf, [0; 16]);
    }

    #[test]
    fn protect_splits_vma() {
        let mut space = space_with(0x1000, 3 * PAGE_SIZE, Perms::RX);
        space.protect(0x2000, PAGE_SIZE, Perms::NONE).unwrap();
        assert_eq!(space.vmas().len(), 3);
        assert_eq!(space.vma_at(0x1000).unwrap().perms, Perms::RX);
        assert_eq!(space.vma_at(0x2000).unwrap().perms, Perms::NONE);
        assert_eq!(space.vma_at(0x3000).unwrap().perms, Perms::RX);
        let mut buf = [0u8; 1];
        assert!(space.fetch_exec(0x2000, &mut buf).is_err());
    }

    #[test]
    fn fetch_through_the_tlb_does_not_outlive_the_vma() {
        let mut space = space_with(0x1000, 2 * PAGE_SIZE, Perms::RX);
        let mut buf = [0u8; 1];
        assert!(space.fetch_exec(0x1000, &mut buf).is_ok());
        // Second fetch in the same page hits the TLB.
        assert!(space.fetch_exec(0x1004, &mut buf).is_ok());
        space.protect(0x1000, PAGE_SIZE, Perms::NONE).unwrap();
        assert!(
            space.fetch_exec(0x1000, &mut buf).is_err(),
            "mprotect must empty the TLB"
        );
    }

    #[test]
    fn protect_requires_full_coverage() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RW);
        assert!(space.protect(0x1000, 2 * PAGE_SIZE, Perms::R).is_err());
        // Unchanged on failure.
        assert_eq!(space.vma_at(0x1000).unwrap().perms, Perms::RW);
    }

    #[test]
    fn find_free_skips_existing_mappings() {
        let mut space = AddressSpace::new();
        space.map(0x1000, PAGE_SIZE, Perms::RW, "a").unwrap();
        space.map(0x3000, PAGE_SIZE, Perms::RW, "b").unwrap();
        assert_eq!(space.find_free(0x1000, PAGE_SIZE), Some(0x2000));
        assert_eq!(space.find_free(0x1000, 2 * PAGE_SIZE), Some(0x4000));
        assert_eq!(space.find_free(0x9000, PAGE_SIZE), Some(0x9000));
        assert_eq!(space.find_free(0x1000, u64::MAX - PAGE_SIZE), None);
    }

    #[test]
    fn drop_page_zeroes_contents_but_keeps_mapping() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RW);
        space.write_checked(0x1000, &[9; 4]).unwrap();
        space.drop_page(0x1000);
        assert!(!space.page_present(0x1000));
        let mut buf = [0xFFu8; 4];
        space.read_checked(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn writes_mark_pages_dirty_and_mark_clean_sweeps() {
        let mut space = space_with(0x1000, 4 * PAGE_SIZE, Perms::RW);
        assert_eq!(space.dirty_page_count(), 0);
        // A write straddling a page boundary dirties both pages.
        space.write_checked(0x2000 - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(
            space.dirty_pages().collect::<Vec<_>>(),
            vec![0x1000, 0x2000]
        );
        assert!(space.page_dirty(0x1fff));
        assert!(!space.page_dirty(0x3000));
        space.mark_clean();
        assert_eq!(space.dirty_page_count(), 0);
        assert!(space.page_present(0x1000), "sweep keeps contents");
        // Rewriting the same bytes re-dirties the page.
        space.write_unchecked(0x1000, &[7]);
        assert_eq!(space.dirty_pages().collect::<Vec<_>>(), vec![0x1000]);
    }

    #[test]
    fn mark_dirty_restores_swept_bits_but_skips_unpopulated_pages() {
        let mut space = space_with(0x1000, 2 * PAGE_SIZE, Perms::RW);
        space.write_unchecked(0x1000, &[1]);
        space.mark_clean();
        space.mark_dirty(0x1008);
        assert!(space.page_dirty(0x1000), "populated page re-marked");
        space.mark_dirty(0x2000);
        assert!(
            !space.page_dirty(0x2000),
            "unpopulated page stays clean: dirty ⊆ populated"
        );
    }

    #[test]
    fn unmap_and_drop_page_clear_dirty_bits() {
        let mut space = space_with(0x1000, 3 * PAGE_SIZE, Perms::RW);
        space.write_unchecked(0x1000, &[1]);
        space.write_unchecked(0x2000, &[2]);
        space.write_unchecked(0x3000, &[3]);
        space.unmap(0x2000, PAGE_SIZE).unwrap();
        assert_eq!(
            space.dirty_pages().collect::<Vec<_>>(),
            vec![0x1000, 0x3000]
        );
        space.drop_page(0x3000);
        assert_eq!(space.dirty_pages().collect::<Vec<_>>(), vec![0x1000]);
    }

    fn full_page(fill: u8) -> Page {
        [fill; PAGE_LEN]
    }

    #[test]
    fn shared_page_reads_without_copying() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RW);
        let frame = SharedFrame::new(&full_page(0xAB));
        space.install_shared_page(0x1000, frame.clone());
        assert!(space.page_present(0x1000));
        assert!(space.page_shared(0x1000));
        assert!(space.page_dirty(0x1000), "install dirties like a write");
        assert_eq!(space.shared_page_count(), 1);
        assert_eq!(frame.handle_count(), 2, "frame + installed slot");
        let mut buf = [0u8; 4];
        space.read_checked(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 4]);
        assert_eq!(space.cow_fault_count(), 0, "reads never fault");
    }

    #[test]
    fn first_write_to_shared_page_copy_on_writes() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RW);
        let frame = SharedFrame::new(&full_page(0x11));
        space.install_shared_page(0x1000, frame.clone());
        space.write_checked(0x1004, &[0xEE; 2]).unwrap();
        assert_eq!(space.cow_fault_count(), 1);
        assert!(!space.page_shared(0x1000), "privatised by the write");
        assert_eq!(frame.handle_count(), 1, "slot released its handle");
        assert_eq!(frame.bytes(), &full_page(0x11)[..], "frame is immutable");
        let mut buf = [0u8; 8];
        space.read_checked(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0x11, 0x11, 0x11, 0x11, 0xEE, 0xEE, 0x11, 0x11]);
        // Further writes to the now-private page fault no more.
        space.write_checked(0x1000, &[1]).unwrap();
        assert_eq!(space.cow_fault_count(), 1);
    }

    #[test]
    fn cow_in_one_space_is_invisible_to_another_sharing_the_frame() {
        let frame = SharedFrame::new(&full_page(0x42));
        let mut a = space_with(0x1000, PAGE_SIZE, Perms::RW);
        let mut b = space_with(0x1000, PAGE_SIZE, Perms::RW);
        a.install_shared_page(0x1000, frame.clone());
        b.install_shared_page(0x1000, frame.clone());
        assert_eq!(frame.handle_count(), 3);
        a.write_unchecked(0x1000, &[0xFF]);
        let mut buf = [0u8; 1];
        b.read_checked(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0x42], "b still reads the pristine frame");
        assert!(b.page_shared(0x1000));
        assert_eq!(frame.handle_count(), 2, "only a privatised");
    }

    #[test]
    fn cow_bumps_code_page_generation() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RX);
        space.install_shared_page(0x1000, SharedFrame::new(&full_page(0x90)));
        let gen = space.note_code_page(0x1000);
        space.write_unchecked(0x1008, &[0xCC]);
        assert!(
            space.code_page_gen(0x1000) > gen,
            "a CoW write invalidates decoded blocks like any other write"
        );
    }

    #[test]
    fn install_over_registered_code_page_bumps_generation() {
        let mut space = space_with(0x1000, PAGE_SIZE, Perms::RX);
        space.write_unchecked(0x1000, &[0x90; 4]);
        let gen = space.note_code_page(0x1000);
        space.install_shared_page(0x1000, SharedFrame::new(&full_page(0x90)));
        assert!(
            space.code_page_gen(0x1000) > gen,
            "replacing the backing invalidates cached blocks"
        );
    }

    #[test]
    fn drop_and_unmap_release_shared_frames() {
        let frame = SharedFrame::new(&full_page(9));
        let mut space = space_with(0x1000, 2 * PAGE_SIZE, Perms::RW);
        space.install_shared_page(0x1000, frame.clone());
        space.install_shared_page(0x2000, frame.clone());
        assert_eq!(frame.handle_count(), 3);
        space.drop_page(0x1000);
        assert_eq!(frame.handle_count(), 2);
        space.unmap(0x2000, PAGE_SIZE).unwrap();
        assert_eq!(frame.handle_count(), 1, "unmap dropped the slot");
        assert_eq!(space.shared_page_count(), 0);
    }

    #[test]
    fn clone_shares_frames_but_privatises_independently() {
        let frame = SharedFrame::new(&full_page(5));
        let mut a = space_with(0x1000, PAGE_SIZE, Perms::RW);
        a.install_shared_page(0x1000, frame.clone());
        let mut b = a.clone();
        assert_eq!(frame.handle_count(), 3, "clone aliases the frame");
        b.write_unchecked(0x1000, &[7]);
        let mut buf = [0u8; 1];
        a.read_unchecked(0x1000, &mut buf);
        assert_eq!(buf, [5], "clone's CoW does not touch the original");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Invariant: the dirty set is always a subset of the populated
        /// set, across arbitrary interleavings of writes, page drops,
        /// unmaps, and clean sweeps.
        #[test]
        fn dirty_is_subset_of_populated(
            ops in proptest::collection::vec((0u8..4, 0u64..8), 1..64)
        ) {
            use proptest::prelude::*;
            let mut space = space_with(0x1000, 8 * PAGE_SIZE, Perms::RW);
            for (op, page) in ops {
                let addr = 0x1000 + page * PAGE_SIZE;
                match op {
                    0 => space.write_unchecked(addr, &[u8::try_from(page).unwrap(); 16]),
                    1 => space.drop_page(addr),
                    2 => space.mark_clean(),
                    _ => {
                        space.unmap(addr, PAGE_SIZE).unwrap();
                        space.map(addr, PAGE_SIZE, Perms::RW, "test").unwrap();
                    }
                }
                let populated: std::collections::BTreeSet<u64> =
                    space.populated_pages().map(|(base, _)| base).collect();
                for base in space.dirty_pages() {
                    prop_assert!(
                        populated.contains(&base),
                        "dirty page {base:#x} not populated"
                    );
                }
            }
        }

        /// Shared-frame installs are observationally identical to copying
        /// writes: a space driven by `install_shared_page` and one driven
        /// by `write_unchecked` of the same bytes agree on populated
        /// pages, their contents, and the dirty bitmap — across arbitrary
        /// interleavings of installs, partial writes, drops, and sweeps.
        #[test]
        fn shared_installs_are_equivalent_to_copying_writes(
            ops in proptest::collection::vec((0u8..4, 0u64..6, 0u8..=255u8), 1..48)
        ) {
            use proptest::prelude::*;
            let mut shared = space_with(0x1000, 6 * PAGE_SIZE, Perms::RW);
            let mut copied = space_with(0x1000, 6 * PAGE_SIZE, Perms::RW);
            for (op, page, fill) in ops {
                let addr = 0x1000 + page * PAGE_SIZE;
                match op {
                    0 => {
                        let bytes = [fill; PAGE_LEN];
                        shared.install_shared_page(addr, SharedFrame::new(&bytes));
                        copied.write_unchecked(addr, &bytes);
                    }
                    1 => {
                        shared.write_unchecked(addr + 8, &[fill; 16]);
                        copied.write_unchecked(addr + 8, &[fill; 16]);
                    }
                    2 => {
                        shared.drop_page(addr);
                        copied.drop_page(addr);
                    }
                    _ => {
                        shared.mark_clean();
                        copied.mark_clean();
                    }
                }
                let a: Vec<(u64, Vec<u8>)> = shared
                    .populated_pages()
                    .map(|(base, bytes)| (base, bytes.to_vec()))
                    .collect();
                let b: Vec<(u64, Vec<u8>)> = copied
                    .populated_pages()
                    .map(|(base, bytes)| (base, bytes.to_vec()))
                    .collect();
                prop_assert_eq!(a, b, "page contents diverged");
                prop_assert_eq!(
                    shared.dirty_pages().collect::<Vec<_>>(),
                    copied.dirty_pages().collect::<Vec<_>>(),
                    "dirty bitmaps diverged"
                );
            }
        }
    }
    /// Where the TLB property's pages start; `TLB_PAGES` pages follow.
    const TLB_BASE: u64 = 0x10_000;
    const TLB_PAGES: u64 = 8;

    /// One step of the TLB property: a guest access, or a host call that
    /// can change what the table may grant.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Load {
            addr: u64,
            len: usize,
        },
        Store {
            addr: u64,
            len: usize,
            byte: u8,
        },
        Fetch {
            addr: u64,
            len: usize,
        },
        HostWrite {
            addr: u64,
            len: usize,
            byte: u8,
        },
        Map {
            page: u64,
            pages: u64,
            perms: Perms,
        },
        Unmap {
            page: u64,
            pages: u64,
        },
        Protect {
            page: u64,
            pages: u64,
            perms: Perms,
        },
        DropPage {
            page: u64,
        },
        Install {
            page: u64,
            fill: u8,
        },
        Replace {
            page: u64,
            fill: Option<u8>,
        },
        RestorePage,
        MarkClean,
        MarkDirty {
            page: u64,
        },
        NoteCodePage {
            page: u64,
        },
        SeedCodePageGen {
            page: u64,
            gen: u64,
        },
        /// Drops or unmaps `page`, then populates `other`, which takes
        /// the freed slot if it was unpopulated.
        Reuse {
            page: u64,
            other: u64,
            unmap: bool,
            byte: u8,
        },
        /// A guest load, a host write that may populate the page, and
        /// the same load again.
        TouchAfterRead {
            addr: u64,
            len: usize,
            byte: u8,
        },
        Clone,
    }

    impl Step {
        /// Reads a step from one draw, weighted towards guest accesses.
        /// An access starts near the start of its page or near its end,
        /// so that a long one straddles into the next page.
        fn from_draw((kind, index, offset, len, byte): (u8, u64, u64, usize, u8)) -> Step {
            let page = TLB_BASE + index * PAGE_SIZE;
            let addr = page
                + if offset < 32 {
                    offset
                } else {
                    PAGE_SIZE - (offset - 31)
                };
            let pages = u64::from(byte % 2) + 1;
            let perms = Perms {
                read: byte & 1 != 0,
                write: byte & 2 != 0,
                exec: byte & 4 != 0,
            };
            match kind {
                0..=7 => Step::Load { addr, len },
                8..=14 => Step::Store { addr, len, byte },
                15..=17 => Step::Fetch { addr, len },
                18 => Step::HostWrite { addr, len, byte },
                19 => Step::Map { page, pages, perms },
                20 => Step::Unmap { page, pages },
                21 => Step::Protect { page, pages, perms },
                22 => Step::DropPage { page },
                23 => Step::Install { page, fill: byte },
                24 => Step::Replace {
                    page,
                    fill: (byte % 3 != 0).then_some(byte),
                },
                25 => Step::RestorePage,
                26 => Step::MarkClean,
                27 => Step::MarkDirty { page },
                28 => Step::NoteCodePage { page },
                29 => Step::SeedCodePageGen {
                    page,
                    gen: u64::from(byte % 8),
                },
                30 => Step::Reuse {
                    page,
                    other: TLB_BASE
                        + (index + 1 + u64::from(byte) % (TLB_PAGES - 1)) % TLB_PAGES * PAGE_SIZE,
                    unmap: byte & 1 != 0,
                    byte,
                },
                31 => Step::TouchAfterRead { addr, len, byte },
                _ => Step::Clone,
            }
        }

        /// The page a step backs with a new shared frame, and its fill.
        fn frame(self) -> Option<(u64, u8)> {
            match self {
                Step::Install { page, fill }
                | Step::Replace {
                    page,
                    fill: Some(fill),
                } => Some((page, fill)),
                _ => None,
            }
        }
    }

    /// A space with a read-write, a read-write-execute and a read-only
    /// VMA of two pages each, then two unmapped pages.
    fn tlb_space() -> AddressSpace {
        let mut space = AddressSpace::new();
        let rwx = Perms {
            read: true,
            write: true,
            exec: true,
        };
        for (i, perms) in [Perms::RW, rwx, Perms::R].into_iter().enumerate() {
            let start = TLB_BASE + 2 * PAGE_SIZE * u64::try_from(i).unwrap();
            space.map(start, 2 * PAGE_SIZE, perms, "tlb").unwrap();
        }
        space
    }

    /// Applies `step` to `space`. `empty_first` empties the table before
    /// an access, so the access takes the slow path. Returns what the
    /// guest or host saw: the bytes an access read, or the error a call
    /// returned.
    fn apply(
        space: &mut AddressSpace,
        step: Step,
        frame: Option<&SharedFrame>,
        displaced: &mut Vec<DisplacedPage>,
        empty_first: bool,
    ) -> Result<Vec<u8>, VmError> {
        if empty_first {
            space.empty_tlb();
        }
        match step {
            Step::Load { addr, len } => {
                let mut buf = vec![0; len];
                space.read_checked(addr, &mut buf).map(|()| buf)
            }
            Step::Fetch { addr, len } => {
                let mut buf = vec![0; len];
                space.fetch_exec(addr, &mut buf).map(|()| buf)
            }
            Step::Store { addr, len, byte } => {
                space.write_checked(addr, &vec![byte; len]).map(|()| vec![])
            }
            Step::HostWrite { addr, len, byte } => {
                space.write_unchecked(addr, &vec![byte; len]);
                Ok(vec![])
            }
            Step::Map { page, pages, perms } => space
                .map(page, pages * PAGE_SIZE, perms, "tlb")
                .map(|()| vec![]),
            Step::Unmap { page, pages } => space.unmap(page, pages * PAGE_SIZE).map(|()| vec![]),
            Step::Protect { page, pages, perms } => space
                .protect(page, pages * PAGE_SIZE, perms)
                .map(|()| vec![]),
            Step::DropPage { page } => {
                space.drop_page(page);
                Ok(vec![])
            }
            Step::Install { page, .. } => {
                space.install_shared_page(page, frame.expect("an install has a frame").clone());
                Ok(vec![])
            }
            Step::Replace { page, .. } => {
                displaced.push(space.replace_page(page, frame.cloned()));
                Ok(vec![])
            }
            Step::RestorePage => {
                if let Some(page) = displaced.pop() {
                    space.restore_page(page);
                }
                Ok(vec![])
            }
            Step::MarkClean => {
                space.mark_clean();
                Ok(vec![])
            }
            Step::MarkDirty { page } => {
                space.mark_dirty(page);
                Ok(vec![])
            }
            Step::NoteCodePage { page } => Ok(space.note_code_page(page).to_le_bytes().to_vec()),
            Step::SeedCodePageGen { page, gen } => {
                space.seed_code_page_gen(page, gen);
                Ok(vec![])
            }
            Step::Reuse {
                page,
                other,
                unmap,
                byte,
            } => {
                if unmap {
                    let perms = space.vma_at(page).map(|vma| vma.perms);
                    space.unmap(page, PAGE_SIZE)?;
                    if let Some(perms) = perms {
                        space.map(page, PAGE_SIZE, perms, "tlb")?;
                    }
                } else {
                    space.drop_page(page);
                }
                space.write_unchecked(other + 8, &[byte; 16]);
                Ok(vec![])
            }
            Step::TouchAfterRead { addr, len, byte } => {
                let mut first = vec![0; len];
                space.read_checked(addr, &mut first)?;
                space.write_unchecked(addr, &vec![byte; len]);
                if empty_first {
                    space.empty_tlb();
                }
                let mut second = vec![0; len];
                space.read_checked(addr, &mut second)?;
                first.extend(second);
                Ok(first)
            }
            Step::Clone => {
                *space = space.clone();
                Ok(vec![])
            }
        }
    }

    /// Every page's bytes, dirty bit, code generation and backing, and
    /// the space's copy-on-write count.
    fn observed(space: &AddressSpace) -> impl PartialEq + std::fmt::Debug {
        let pages: Vec<(u64, Vec<u8>)> = space
            .populated_pages()
            .map(|(base, bytes)| (base, bytes.to_vec()))
            .collect();
        let shared: Vec<bool> = (0..TLB_PAGES)
            .map(|index| space.page_shared(TLB_BASE + index * PAGE_SIZE))
            .collect();
        (
            pages,
            space.dirty_pages().collect::<Vec<_>>(),
            space.code_pages().collect::<Vec<_>>(),
            shared,
            space.cow_fault_count(),
        )
    }

    /// A space's code stamp and the generation of every registered page.
    fn code_state(space: &AddressSpace) -> (u64, BTreeMap<u64, u64>) {
        (space.code_stamp(), space.code_pages().collect())
    }

    /// The code stamp moved since `before` exactly when a page's
    /// generation did, an unregistered page reading 0: registering a
    /// page at 0 moves neither.
    fn stamp_tracks_generations(
        space: &AddressSpace,
        (stamp, gens): &(u64, BTreeMap<u64, u64>),
    ) -> Result<(), String> {
        let gens_moved = space
            .code_pages()
            .any(|(base, gen)| gens.get(&base).copied().unwrap_or(0) != gen);
        let stamp_moved = space.code_stamp() != *stamp;
        if gens_moved == stamp_moved {
            Ok(())
        } else {
            Err(format!(
                "generations moved: {gens_moved}, stamp moved: {stamp_moved}"
            ))
        }
    }

    /// Every right the table holds is one the slow path would grant now,
    /// and every slot an entry holds is its page's.
    fn tlb_is_sound(space: &AddressSpace) -> Result<(), String> {
        for entry in &space.tlb.0 {
            let base = page_base(entry.tag);
            let rights = entry.tag - base;
            let slot = space.pages.get(&base).copied();
            if entry.slot != NO_SLOT && Some(entry.slot) != slot {
                return Err(format!(
                    "entry for {base:#x} holds slot {}, the page has {slot:?}",
                    entry.slot
                ));
            }
            let allowed = space.page_rights(base, slot);
            if rights & !allowed != 0 {
                return Err(format!(
                    "entry for {base:#x} grants {rights:#b}, the slow path {allowed:#b}"
                ));
            }
        }
        Ok(())
    }

    /// After a guest access inside one page succeeded, the page's entry
    /// holds the page's slot: a slow path refilled it, so the next access
    /// can hit.
    fn tlb_holds_slot(space: &AddressSpace, step: Step) -> Result<(), String> {
        let (Step::Load { addr, len } | Step::Store { addr, len, .. } | Step::Fetch { addr, len }) =
            step
        else {
            return Ok(());
        };
        let base = page_base(addr);
        if page_offset(addr) + len > PAGE_LEN {
            return Ok(());
        }
        let entry = space.tlb.0[Tlb::index(base)];
        let slot = space.pages.get(&base).copied().unwrap_or(NO_SLOT);
        if page_base(entry.tag) != base || entry.slot != slot {
            return Err(format!(
                "entry for {base:#x} reads {:#x}/{}, the page's slot is {slot}",
                entry.tag, entry.slot
            ));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The soft TLB is invisible: a space that uses it and one that
        /// empties it before every access return the same result and
        /// bytes for every load, store and fetch (in-page or straddling)
        /// and agree after every step on page bytes, dirty bits, code
        /// generations, shared backings and copy-on-write faults, across
        /// every call that can take a right away or free a slot, a slot
        /// handed to another page, and a page a host write populates
        /// under an entry filled while it was empty. A third space maps
        /// every installed frame, and its bytes never change. Every
        /// right the table holds is one the slow path would grant, every
        /// slot an entry holds is its page's, and an access that
        /// succeeded leaves its page's slot in the table. On both spaces
        /// the code stamp, the one gate on a cached block's
        /// revalidation, moves exactly when a page's generation does.
        #[test]
        fn the_tlb_is_invisible(
            draws in proptest::collection::vec(
                (0u8..34, 0u64..TLB_PAGES, 0u64..64, 1usize..=16, proptest::prelude::any::<u8>()),
                1..160,
            )
        ) {
            use proptest::prelude::*;
            let mut fast = tlb_space();
            let mut slow = tlb_space();
            let mut other = space_with(TLB_BASE, TLB_PAGES * PAGE_SIZE, Perms::RW);
            let mut other_fills = BTreeMap::new();
            let (mut fast_displaced, mut slow_displaced) = (Vec::new(), Vec::new());
            for draw in draws {
                let step = Step::from_draw(draw);
                let before = [code_state(&fast), code_state(&slow)];
                let frame = step.frame().map(|(page, fill)| {
                    let frame = SharedFrame::new(&[fill; PAGE_LEN]);
                    other.install_shared_page(page, frame.clone());
                    other_fills.insert(page, fill);
                    frame
                });
                let seen = apply(&mut fast, step, frame.as_ref(), &mut fast_displaced, false);
                let expected = apply(&mut slow, step, frame.as_ref(), &mut slow_displaced, true);
                let succeeded = seen.is_ok();
                prop_assert_eq!(seen, expected, "{:?}", step);
                prop_assert_eq!(observed(&fast), observed(&slow), "after {:?}", step);
                prop_assert_eq!(tlb_is_sound(&fast), Ok(()), "after {:?}", step);
                for (space, before) in [&fast, &slow].into_iter().zip(&before) {
                    prop_assert_eq!(
                        stamp_tracks_generations(space, before),
                        Ok(()),
                        "after {:?}",
                        step
                    );
                }
                if succeeded {
                    prop_assert_eq!(tlb_holds_slot(&fast, step), Ok(()), "after {:?}", step);
                }
                for (&page, &fill) in &other_fills {
                    prop_assert_eq!(other.page_bytes(page), Some(&[fill; PAGE_LEN][..]));
                }
            }
        }
    }
}
