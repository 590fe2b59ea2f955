//! The decoded-block translation cache.
//!
//! Every workload in this repo bottoms out in the interpreter's
//! fetch/decode loop, which used to re-probe the VMA list and re-decode
//! every instruction on every step. Real DBI substrates (DynamoRIO, the
//! engine the paper uses for drcov tracing) get their speed from a code
//! cache of pre-decoded basic blocks. This module is that cache, sized
//! for DynaCut's defining constraint: the framework *patches trap bytes
//! into running code*, so a stale cached block that hides a freshly
//! planted `0xCC` is a correctness (and in DynaCut terms, security) bug,
//! not a performance bug.
//!
//! # Superblocks
//!
//! Dispatch cost is paid per *block*: a cache probe and, after a code
//! page changed, a page-generation check. Short blocks (server request
//! handlers average a handful of instructions between branches)
//! amortize that badly, so entries that stay hot ([`HOT_THRESHOLD`] dispatches) are
//! re-decoded as **superblocks**: the decoder chains across direct
//! branches — unconditional jumps and calls always, conditional jumps
//! by static prediction (backward = loop back-edge = taken, forward =
//! fall through) — up to [`MAX_SUPERBLOCK_INSNS`] instructions, with
//! loop bodies unrolled when the chain revisits the entry. Every
//! instruction in a superblock records its expected pc; the dispatcher
//! side-exits the moment the guest's pc disagrees (a mispredicted
//! branch), so a superblock is *pure speculation about control flow*,
//! never about instruction semantics.
//!
//! # Carried entries
//!
//! Keys are entry pcs. A customize cycle used to flush the whole cache;
//! now the commit carries the entries that ran since the cache's own
//! carry across the restore swap and seeds safe generations for the
//! pages they decode from ([`BlockCache::carry_into`]). A carried
//! entry's first dispatch that validates is a **version swap**: the
//! block comes back without a re-decode. Blocks over rewritten pages
//! can never validate (their generations were seeded past every
//! snapshot), so they are stale and re-decoded. An entry nothing
//! dispatched since the last carry is not carried again, so the carried
//! state is bounded by what the last version ran. Rollback re-inserts
//! the original process with its cache untouched — swapping back is
//! free.
//!
//! # Invalidation invariant (DESIGN §11)
//!
//! No cached block may survive a write, remap, protection change,
//! restore, or rewrite that overlaps it. Enforcement is
//! **page-generation-based and lazy**: [`AddressSpace`] keeps a
//! generation counter for every page the cache has registered
//! ([`AddressSpace::note_code_page`]); any mutation of such a page —
//! guest stores, host `write_unchecked`, `unmap`, `protect`,
//! `drop_page` — bumps its generation and gives the space a fresh code
//! stamp ([`AddressSpace::code_stamp`]). A [`CachedBlock`] snapshots the
//! generations of every page it decodes from, and the dispatcher
//! revalidates the snapshot before executing the block — unless the
//! space still reads the stamp the entry last validated under — and
//! again after any store inside it that moved the stamp: self-modifying
//! code — and a host-planted trap byte — takes effect on the very next
//! instruction, even mid-superblock, while a store to a data page costs
//! one comparison. A stamp names one generation table across every
//! space in the process, so an entry carried onto another space (a
//! restore) revalidates there. A restored process starts with an empty
//! cache because it is built new; only the engine's customize commit
//! carries entries into it, seeding generations as it does.
//!
//! The cache is **excluded from [`Kernel::state_fingerprint`]**: cached
//! and uncached execution of the same workload are bit-identical in
//! every guest-observable way, and the fingerprint enumerates exactly
//! the guest-observable fields.
//!
//! # Dispatch
//!
//! Every dispatch probes the map once ([`BlockCache::hit`] returns the
//! entry it found; a miss or a promotion returns the block it put
//! there), so the map hashes its entry-pc keys with [`KeyHasher`], a
//! fixed rotate, multiply and fold, instead of SipHash. Nothing depends
//! on the map's iteration order: capacity eviction sorts by
//! `(heat, last_hit, pc)`. The block runs by reference out of the map
//! while the process's CPU and address space are borrowed beside it, so
//! no refcount moves; blocks stay [`Arc`]s so a cloned process shares
//! them. Inside a block, the dispatcher tests for pending signals once,
//! at entry, compares the guest pc with the decoded chain only after a
//! conditional branch, the one instruction that can leave it, and
//! settles the budget, the retired count and the clock once, when the
//! block exits.
//!
//! [`AddressSpace`]: crate::AddressSpace
//! [`AddressSpace::note_code_page`]: crate::AddressSpace::note_code_page
//! [`AddressSpace::code_stamp`]: crate::AddressSpace::code_stamp
//! [`Kernel::state_fingerprint`]: crate::Kernel::state_fingerprint

use crate::mem::AddressSpace;
use crate::Process;
use dynacut_isa::Insn;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Upper bound on instructions per basic block. Blocks end at the
/// first terminator or syscall anyway; the cap only bounds pathological
/// straight-line runs.
pub(crate) const MAX_BLOCK_INSNS: usize = 32;

/// Upper bound on instructions per superblock — the chain/unroll budget
/// once an entry goes hot.
pub(crate) const MAX_SUPERBLOCK_INSNS: usize = 256;

/// Dispatch count at which an entry is re-decoded as a superblock.
pub(crate) const HOT_THRESHOLD: u32 = 16;

/// Entries held per process before cold entries are evicted.
const MAX_CACHED_BLOCKS: usize = 4096;

/// How many of the coldest entries one capacity eviction removes.
/// Evicting a batch (instead of one) keeps the eviction scan off the
/// per-insert hot path during a cold storm.
const CAPACITY_EVICT_BATCH: usize = 512;

/// A decoded instruction run starting at one entry pc: a straight-line
/// basic block (up to the first terminator, syscall, or
/// [`MAX_BLOCK_INSNS`]) or, once hot, a superblock chained across
/// predicted-taken direct branches up to [`MAX_SUPERBLOCK_INSNS`].
#[derive(Debug)]
pub(crate) struct CachedBlock {
    /// The decoded run: `(instruction, encoded length)` pairs, in
    /// execution order from the entry pc.
    pub(crate) insns: Box<[(Insn, u8)]>,
    /// The guest address of each instruction in `insns`. For a
    /// superblock this is the dispatcher's side-exit guard: before
    /// executing instruction `i > 0`, the guest pc must equal `pcs[i]`
    /// or the block is abandoned at the current (correct) pc. For a
    /// straight-line block the guard is trivially true.
    pub(crate) pcs: Box<[u64]>,
    /// Generation snapshot of every code page the run decodes from, as
    /// `(page base, generation)` pairs. The block is valid exactly
    /// while every page still carries its snapshotted generation.
    pub(crate) pages: Vec<(u64, u64)>,
    /// Whether this run was chained across branches. Hot straight-line
    /// entries are promoted once; superblocks are never re-promoted.
    pub(crate) is_superblock: bool,
}

impl CachedBlock {
    /// Whether every page this block was decoded from still carries the
    /// generation it had at decode time.
    pub(crate) fn pages_valid(&self, mem: &AddressSpace) -> bool {
        self.pages
            .iter()
            .all(|&(base, gen)| mem.code_page_gen(base) == gen)
    }
}

/// The dispatch map's hasher: each 64-bit word of the key is XORed into
/// the state, and the state, rotated by 32 bits, is multiplied by an odd
/// constant into 128 bits whose two halves are XORed together. The fold
/// carries every key bit into the low bits (the bucket index) and the
/// high bits (the map's tag byte), so pcs that differ only in high bits
/// do not share buckets; the rotation is what spreads them with one
/// multiply. It has no key: a guest that picks colliding pcs slows only
/// its own dispatch, and its cache holds at most [`MAX_CACHED_BLOCKS`]
/// entries.
#[derive(Debug, Default)]
struct KeyHasher(u64);

/// The golden ratio's fraction: odd, with its bits well spread.
const KEY_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from((self.0 ^ word).rotate_left(32)) * u128::from(KEY_MIX);
        #[allow(
            clippy::cast_possible_truncation,
            reason = "splits the 128-bit product into its two halves"
        )]
        let (low, high) = (product as u64, (product >> 64) as u64);
        self.0 = low ^ high;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One cache entry: the decoded block plus the dispatch profile that
/// drives superblock promotion and capacity eviction.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    block: Arc<CachedBlock>,
    /// Saturating dispatch count; [`HOT_THRESHOLD`] triggers promotion.
    /// Halved on every capacity eviction so ancient heat decays.
    heat: u32,
    /// The cache tick of the last dispatch — the recency half of the
    /// eviction order, and, against the cache's `carried_at`, whether
    /// the entry ran since the cache's carry.
    last_hit: u64,
    /// The code stamp the block last validated under
    /// ([`AddressSpace::code_stamp`]): while its space reads this stamp,
    /// a dispatch runs the block without re-reading its page
    /// generations.
    validated: u64,
}

impl Entry {
    /// The decoded block.
    #[inline]
    pub(crate) fn block(&self) -> &CachedBlock {
        &self.block
    }

    /// Whether the entry is a plain block dispatched often enough to be
    /// re-decoded as a superblock.
    #[inline]
    pub(crate) fn wants_promotion(&self) -> bool {
        !self.block.is_superblock && self.heat >= HOT_THRESHOLD
    }

    /// Replaces the plain block with the superblock decoded at its entry
    /// pc from `mem`; the dispatch profile stays.
    pub(crate) fn promote(&mut self, superblock: CachedBlock, mem: &AddressSpace) {
        self.block = Arc::new(superblock);
        self.validated = mem.code_stamp();
    }

    /// Whether the block's pages still carry the generations it was
    /// decoded under. Known without a look while `mem` reads the stamp
    /// the block last validated under; a look that succeeds records the
    /// new stamp.
    #[inline]
    fn revalidate(&mut self, mem: &AddressSpace) -> bool {
        let stamp = mem.code_stamp();
        if self.validated == stamp {
            return true;
        }
        let valid = self.block.pages_valid(mem);
        if valid {
            self.validated = stamp;
        }
        valid
    }
}

/// What a dispatch probe found at one key.
pub(crate) enum Probe<'a> {
    /// An entry whose block validates; its profile has been bumped.
    Valid(&'a mut Entry),
    /// A carried entry's first dispatch since the carry, and its block
    /// validates: the block comes back without a re-decode (a version
    /// swap). Its profile has been bumped.
    Swapped(&'a mut Entry),
    /// An entry whose block no longer validates: a write, remap or page
    /// drop bumped one of its pages' generations since it was decoded,
    /// or a carry seeded one past it.
    Stale,
    /// No entry.
    Absent,
}

/// A per-process cache of decoded instruction blocks keyed by entry pc.
///
/// Cloning a [`Process`] clones the cache by bumping the blocks'
/// refcounts; the page-generation snapshots stay consistent because the
/// address space (and its generation table, and its code stamp) is
/// cloned alongside.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    blocks: HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>,
    /// The tick of the carry that built this cache, 0 if none did: an
    /// entry whose last hit is not past it was carried and has not run
    /// since.
    carried_at: u64,
    /// Monotonic dispatch counter backing `Entry::last_hit`. Only the
    /// order of the ticks it hands out matters.
    tick: u64,
}

impl BlockCache {
    /// Probes the entry at `pc` once, bumping its dispatch profile, and
    /// revalidates its block against `mem`. A [`Probe::Stale`] entry
    /// stays cached until the caller [`remove`](BlockCache::remove)s it.
    #[inline]
    pub(crate) fn hit(&mut self, pc: u64, mem: &AddressSpace) -> Probe<'_> {
        self.tick += 1;
        let Some(entry) = self.blocks.get_mut(&pc) else {
            return Probe::Absent;
        };
        let carried = entry.last_hit <= self.carried_at;
        entry.heat = entry.heat.saturating_add(1);
        entry.last_hit = self.tick;
        match (entry.revalidate(mem), carried) {
            (false, _) => Probe::Stale,
            (true, false) => Probe::Valid(entry),
            (true, true) => Probe::Swapped(entry),
        }
    }

    /// The block at `pc` without touching the profile (tests and
    /// introspection).
    #[cfg(test)]
    pub(crate) fn get(&self, pc: u64) -> Option<&Arc<CachedBlock>> {
        self.blocks.get(&pc).map(|entry| &entry.block)
    }

    /// Caches `block`, just decoded from `mem`, at `pc`, evicting a batch
    /// of the coldest entries first if the cache is at capacity, and
    /// returns the cached block with the number of entries evicted for
    /// capacity (the `block_cache.capacity_evictions` metric). Dispatch
    /// inserts only a pc that [`hit`](BlockCache::hit) found absent or
    /// that it removed as stale, so no entry is there already.
    pub(crate) fn insert(
        &mut self,
        pc: u64,
        block: CachedBlock,
        mem: &AddressSpace,
    ) -> (&CachedBlock, u64) {
        debug_assert!(!self.blocks.contains_key(&pc), "{pc:#x} is cached");
        let mut evicted = 0u64;
        if self.blocks.len() >= MAX_CACHED_BLOCKS {
            evicted = self.evict_coldest(CAPACITY_EVICT_BATCH);
        }
        self.tick += 1;
        let entry = self.blocks.entry(pc).insert_entry(Entry {
            block: Arc::new(block),
            heat: 0,
            last_hit: self.tick,
            validated: mem.code_stamp(),
        });
        (&entry.into_mut().block, evicted)
    }

    /// Removes the `count` entries with the smallest `(heat, last_hit)`
    /// — cold first, then stale — and halves the survivors' heat so a
    /// once-hot entry cannot squat forever. Hot entries survive cap
    /// pressure by construction: a cold storm of fresh inserts ranks
    /// below anything dispatched more than a couple of times.
    fn evict_coldest(&mut self, count: usize) -> u64 {
        let mut order: Vec<(u32, u64, u64)> = self
            .blocks
            .iter()
            .map(|(&pc, entry)| (entry.heat, entry.last_hit, pc))
            .collect();
        order.sort_unstable();
        order.truncate(count);
        for &(_, _, pc) in &order {
            self.blocks.remove(&pc);
        }
        for entry in self.blocks.values_mut() {
            entry.heat /= 2;
        }
        order.len() as u64
    }

    /// Evicts the entry at `pc`, if cached.
    pub(crate) fn remove(&mut self, pc: u64) {
        self.blocks.remove(&pc);
    }

    /// Carries `original`'s cache into `replacement`, the process a
    /// customize commit put in its place: the entries that ran since
    /// `original`'s own carry, each with its dispatch profile and
    /// validation stamp, and a seed of the replacement's generation of
    /// every page they decode from, and of no other. A page still
    /// mapped executable with the same bytes in both spaces keeps the
    /// original's generation, so the blocks over it validate and come
    /// back as version swaps; any other page (rewritten, unmapped or
    /// de-exec'd) gets one more, past every snapshot a carried block
    /// holds, so those blocks are stale. Every page of a carried entry
    /// must be seeded: an unseeded page reads generation 0, and a
    /// carried snapshot of 0 would validate against rewritten bytes.
    /// Seeding only ever raises a generation (the safe direction: a
    /// spurious re-decode, never a stale hit).
    pub fn carry_into(original: &Process, replacement: &mut Process) {
        let carried = original.block_cache.carry();
        let mut pages: Vec<u64> = carried.code_pages().collect();
        pages.sort_unstable();
        pages.dedup();
        for base in pages {
            let gen = original.mem.code_page_gen(base);
            let unchanged = replacement
                .mem
                .vma_at(base)
                .is_some_and(|vma| vma.perms.exec)
                && same_page(&replacement.mem, &original.mem, base);
            let seed = if unchanged { gen } else { gen + 1 };
            replacement.mem.seed_code_page_gen(base, seed);
        }
        replacement.block_cache = carried;
    }

    /// The entries that ran since this cache's own carry, each with its
    /// dispatch profile and validation stamp, in a cache built by a
    /// carry now. An entry that has not run since is left behind, so
    /// the carried state is bounded by what the last version ran.
    fn carry(&self) -> BlockCache {
        let live = self
            .blocks
            .iter()
            .filter(|(_, entry)| entry.last_hit > self.carried_at);
        let mut blocks =
            HashMap::with_capacity_and_hasher(live.clone().count(), BuildHasherDefault::default());
        blocks.extend(live.map(|(&pc, entry)| (pc, entry.clone())));
        BlockCache {
            blocks,
            carried_at: self.tick,
            tick: self.tick,
        }
    }

    /// The base of every code page a cached block decodes from, once
    /// for each block that spans it, in no particular order.
    pub fn code_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks
            .values()
            .flat_map(|entry| entry.block.pages.iter().map(|&(base, _)| base))
    }

    /// Evicts every cached block; the kernel does when the cache is
    /// disabled.
    pub fn flush(&mut self) {
        self.blocks.clear();
    }

    /// Number of blocks currently cached, carried ones included.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Whether the page at `base` reads the same bytes in both spaces; an
/// unpopulated page reads as zeros.
fn same_page(a: &AddressSpace, b: &AddressSpace, base: u64) -> bool {
    match (a.page_bytes(base), b.page_bytes(base)) {
        (Some(a), Some(b)) => a == b,
        (Some(bytes), None) | (None, Some(bytes)) => bytes.iter().all(|&byte| byte == 0),
        (None, None) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_obj::{Perms, PAGE_LEN, PAGE_SIZE};

    fn one_page_space() -> AddressSpace {
        let mut mem = AddressSpace::new();
        mem.map(0x1000, PAGE_SIZE, Perms::RX, "text").unwrap();
        mem
    }

    fn block_over(mem: &mut AddressSpace, page: u64) -> CachedBlock {
        let gen = mem.note_code_page(page);
        CachedBlock {
            insns: vec![(Insn::Nop, 1)].into_boxed_slice(),
            pcs: vec![page].into_boxed_slice(),
            pages: vec![(page, gen)],
            is_superblock: false,
        }
    }

    /// Keys whose pcs differ only above bit 40 spread over the hash's
    /// low bits, which pick the bucket, and over its top seven bits,
    /// which the map keeps as a tag.
    #[test]
    fn key_hash_spreads_high_pc_bits() {
        use std::collections::BTreeSet;
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let hashes: Vec<u64> = (0..4096u64).map(|i| hasher.hash_one(i << 40)).collect();
        let low: BTreeSet<u64> = hashes.iter().map(|hash| hash & 0xFFF).collect();
        let top: BTreeSet<u64> = hashes.iter().map(|hash| hash >> 57).collect();
        // A random function fills ~2,590 of the 4,096 low-bit values.
        assert!(low.len() >= 2_300, "{} distinct low-bit values", low.len());
        assert_eq!(top.len(), 128, "every tag value is used");
    }

    #[test]
    fn block_survives_writes_to_other_pages_only() {
        let mut mem = one_page_space();
        mem.map(0x2000, PAGE_SIZE, Perms::RW, "data").unwrap();
        let block = block_over(&mut mem, 0x1000);
        assert!(block.pages_valid(&mem));
        mem.write_unchecked(0x2000, &[1]);
        assert!(block.pages_valid(&mem), "data write leaves code alone");
        mem.write_unchecked(0x1004, &[0xCC]);
        assert!(!block.pages_valid(&mem), "code write bumps the generation");
    }

    #[test]
    fn unmap_protect_and_drop_invalidate() {
        for op in 0..3 {
            let mut mem = one_page_space();
            let block = block_over(&mut mem, 0x1000);
            match op {
                0 => mem.unmap(0x1000, PAGE_SIZE).unwrap(),
                1 => mem.protect(0x1000, PAGE_SIZE, Perms::R).unwrap(),
                _ => mem.drop_page(0x1000),
            }
            assert!(!block.pages_valid(&mem), "op {op} must invalidate");
        }
    }

    #[test]
    fn generations_survive_unmap_remap() {
        // A block cached before an unmap must not revalidate after the
        // range is re-mapped: generations are never reset.
        let mut mem = one_page_space();
        let block = block_over(&mut mem, 0x1000);
        mem.unmap(0x1000, PAGE_SIZE).unwrap();
        mem.map(0x1000, PAGE_SIZE, Perms::RX, "text").unwrap();
        assert!(!block.pages_valid(&mem));
    }

    /// Regression (ISSUE 8 bugfix): the cache used to wholesale-clear
    /// all 4096 blocks at capacity, evicting the hottest entries along
    /// with the cold storm that caused the pressure. Capacity pressure
    /// now evicts a bounded cold batch and a hot entry survives it.
    #[test]
    fn hot_entry_survives_capacity_pressure() {
        let mut cache = BlockCache::default();
        let mut mem = one_page_space();
        const HOT_PC: u64 = 7;
        for pc in 0..MAX_CACHED_BLOCKS as u64 {
            let (_, evicted) = cache.insert(pc, block_over(&mut mem, 0x1000), &mem);
            assert_eq!(evicted, 0, "no eviction below capacity");
        }
        for _ in 0..64 {
            assert!(heat(cache.hit(HOT_PC, &mem)).is_some());
        }
        // A storm of fresh entries forces capacity evictions.
        let mut evicted_total = 0u64;
        for pc in 10_000..10_000 + (2 * CAPACITY_EVICT_BATCH) as u64 {
            evicted_total += cache.insert(pc, block_over(&mut mem, 0x1000), &mem).1;
        }
        assert!(
            evicted_total >= CAPACITY_EVICT_BATCH as u64,
            "evictions counted"
        );
        assert!(cache.len() <= MAX_CACHED_BLOCKS);
        assert!(
            cache.get(HOT_PC).is_some(),
            "the hot entry outlived {evicted_total} capacity evictions"
        );
        cache.flush();
        assert!(cache.is_empty());
    }

    /// A carried entry's first dispatch that validates is one version
    /// swap, and it keeps the dispatch profile; the next is a plain hit.
    #[test]
    fn a_carried_entry_swaps_in_once() {
        let mut cache = BlockCache::default();
        let mut mem = one_page_space();
        cache.insert(0x1000, block_over(&mut mem, 0x1000), &mem);
        let heat_before = heat(cache.hit(0x1000, &mem)).expect("cached");

        let mut cache = cache.carry();
        assert_eq!(cache.len(), 1, "the entry itself is carried");
        let Probe::Swapped(swapped) = cache.hit(0x1000, &mem) else {
            panic!("the first dispatch after a carry is a version swap");
        };
        assert_eq!(
            swapped.heat,
            heat_before + 1,
            "the swap keeps the dispatch profile"
        );
        assert!(
            matches!(cache.hit(0x1000, &mem), Probe::Valid(_)),
            "swap is one-shot"
        );
    }

    /// A carry takes only the entries that ran since the cache's own
    /// carry: an entry nothing dispatched since is left behind with its
    /// page, and the others come back through one swap each with their
    /// profile and stamp.
    #[test]
    fn carry_keeps_only_what_ran_since_the_last_carry() {
        let mut mem = one_page_space();
        mem.map(0x2000, PAGE_SIZE, Perms::RX, "text2").unwrap();
        let mut cache = BlockCache::default();
        cache.insert(0x1000, block_over(&mut mem, 0x1000), &mem);
        let mut cache = cache.carry();
        cache.insert(0x2000, block_over(&mut mem, 0x2000), &mem);
        for _ in 0..3 {
            assert!(heat(cache.hit(0x2000, &mem)).is_some());
        }
        let stamp = cache.blocks[&0x2000].validated;
        assert_eq!(cache.len(), 2, "the carried entry and the new one");

        let mut carried = cache.carry();
        assert_eq!(carried.len(), 1, "the entry that did not run is gone");
        assert_eq!(carried.code_pages().collect::<Vec<_>>(), vec![0x2000]);
        assert!(matches!(carried.hit(0x1000, &mem), Probe::Absent));
        let Probe::Swapped(entry) = carried.hit(0x2000, &mem) else {
            panic!("the entry that ran is carried");
        };
        assert_eq!(entry.heat, 4, "three hits and the swap");
        assert_eq!(entry.validated, stamp, "the stamp is carried");
        assert_eq!(cache.len(), 2, "the source keeps every entry");
    }

    /// A carried entry whose page changed is stale, not swapped in, and
    /// the dispatcher removes it.
    #[test]
    fn a_carried_entry_over_a_changed_page_is_stale() {
        let mut cache = BlockCache::default();
        let mut mem = one_page_space();
        cache.insert(0x1000, block_over(&mut mem, 0x1000), &mem);
        let mut cache = cache.carry();
        mem.write_unchecked(0x1000, &[0xCC]);
        assert!(matches!(cache.hit(0x1000, &mem), Probe::Stale));
        cache.remove(0x1000);
        assert!(cache.is_empty(), "the stale entry is gone");
    }

    /// `carry_into` seeds exactly the pages the carried entries decode
    /// from: an unchanged executable page at the original's generation,
    /// so its block swaps in, and a rewritten one past it, so its block
    /// is stale.
    #[test]
    fn carry_into_seeds_the_pages_carried_entries_span() {
        let process = || {
            let mut proc = Process::new(crate::Pid(1), "p");
            proc.mem
                .map(0x1000, 3 * PAGE_SIZE, Perms::RX, "text")
                .unwrap();
            proc.mem.write_unchecked(0x1000, &[0x90; 2 * PAGE_LEN]);
            proc
        };
        let mut original = process();
        original.mem.note_code_page(0x1000);
        original.mem.write_unchecked(0x1000, &[0x90]);
        for page in [0x1000, 0x2000] {
            let block = block_over(&mut original.mem, page);
            original.block_cache.insert(page, block, &original.mem);
        }
        original.mem.note_code_page(0x3000);
        let mut replacement = process();
        replacement.mem.write_unchecked(0x1000, &[0xCC]);

        BlockCache::carry_into(&original, &mut replacement);
        assert_eq!(
            replacement.mem.code_pages().collect::<Vec<_>>(),
            [(0x1000, 2), (0x2000, 0)],
            "the rewritten page one past the original's generation, the \
             other at it, and the page no entry spans not at all"
        );
        let cache = &mut replacement.block_cache;
        assert!(matches!(
            cache.hit(0x2000, &replacement.mem),
            Probe::Swapped(_)
        ));
        assert!(matches!(cache.hit(0x1000, &replacement.mem), Probe::Stale));
    }

    /// The stamp gate: a change to any code page moves the space's
    /// stamp, and the next hit re-reads the block's generations; a clone
    /// of the space, whose table is equal, keeps the stamp. Another
    /// space never shares it, so a cache put next to it reads its table.
    #[test]
    fn a_stamp_names_one_table_across_spaces() {
        let mut cache = BlockCache::default();
        let mut mem = one_page_space();
        cache.insert(0x1000, block_over(&mut mem, 0x1000), &mem);
        let stamp = mem.code_stamp();
        mem.seed_code_page_gen(0x5000, 1);
        assert_ne!(mem.code_stamp(), stamp, "another code page changed");
        assert!(
            heat(cache.hit(0x1000, &mem)).is_some(),
            "the block's pages did not"
        );
        assert_eq!(mem.clone().code_stamp(), mem.code_stamp());
        let mut other = one_page_space();
        other.seed_code_page_gen(0x1000, 1);
        assert!(
            matches!(cache.hit(0x1000, &other), Probe::Stale),
            "another space's table is read, not trusted"
        );
        mem.write_unchecked(0x1004, &[0xCC]);
        assert!(matches!(cache.hit(0x1000, &mem), Probe::Stale));
    }

    /// The heat a probe reports, if it found a valid entry.
    fn heat(probe: Probe<'_>) -> Option<u32> {
        match probe {
            Probe::Valid(entry) | Probe::Swapped(entry) => Some(entry.heat),
            Probe::Stale | Probe::Absent => None,
        }
    }
}
