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
//! # Multi-version entries
//!
//! Keys are `(entry_pc, version)` where the version is the cache's
//! **rewrite epoch**. A customize cycle used to flush the whole cache;
//! now it carries the active version's entries across the restore swap
//! under the next epoch ([`BlockCache::carry`]) and seeds safe
//! generations for the pages they decode from. Dispatch that misses the
//! active version probes the previous one and — if its page generations
//! still validate — re-keys the entry forward (a **version swap**: no
//! re-decode). Blocks over rewritten pages can never validate (their
//! generations were seeded past every snapshot) and are re-decoded
//! under the new version, living *alongside* any still-valid pristine
//! entries. Older versions are not carried: dispatch probes one version
//! back, so they could never run again, and the carried cache holds at
//! most two versions. Rollback re-inserts the original process whose
//! cache still holds the pristine version under the old epoch —
//! swapping back is free.
//!
//! # Invalidation invariant (DESIGN §11)
//!
//! No cached block may survive a write, remap, protection change,
//! restore, or rewrite that overlaps it. Enforcement is
//! **page-generation-based and lazy**: [`AddressSpace`] keeps a
//! generation counter for every page the cache has registered
//! ([`AddressSpace::note_code_page`]); any mutation of such a page —
//! guest stores, host `write_unchecked`, `unmap`, `protect`,
//! `drop_page` — bumps its generation, and the space counts every such
//! bump. A [`CachedBlock`] snapshots the generations of every page it
//! decodes from, and the dispatcher revalidates the snapshot before
//! executing the block — unless the space still reads the code stamp the
//! entry last validated under ([`AddressSpace::code_stamp`]) — and again
//! after any instruction inside it that moved the space's count:
//! self-modifying code — and a host-planted trap byte — takes effect on
//! the very next instruction, even mid-superblock, while a store to a
//! data page costs one comparison. A stamp names one generation table
//! across every space in the process, so an entry carried onto another
//! space (a restore) revalidates there whatever that space's count.
//! CRIU image swaps still flush: a restored image may carry arbitrary
//! foreign bytes, and only the engine's customize commit knows enough to
//! seed generations instead (see `CommittedRestore::carry_block_caches`).
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
//! there), so the map hashes its `(entry pc, version)` keys with
//! [`KeyHasher`], a fixed multiply-and-fold, instead of SipHash. Nothing
//! depends on the map's iteration order: capacity eviction sorts by
//! `(heat, last_hit, key)`. The block runs by reference out of the map
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
use dynacut_isa::Insn;
use std::collections::{hash_map, HashMap};
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
/// the state, and the state is multiplied by an odd constant into 128
/// bits whose two halves are XORed together. The fold carries every key
/// bit into the low bits (the bucket index) and the high bits (the
/// map's tag byte), so pcs that differ only in high bits do not share
/// buckets. It has no key: a guest that picks colliding pcs slows only
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
        let product = u128::from(self.0 ^ word) * u128::from(KEY_MIX);
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
    /// eviction order.
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
    /// An entry whose block no longer validates: a write, remap or page
    /// drop bumped one of its pages' generations since it was decoded.
    Stale,
    /// No entry.
    Absent,
}

/// A per-process cache of decoded instruction blocks keyed by
/// `(entry pc, rewrite epoch)`.
///
/// Cloning a [`Process`](crate::Process) clones the cache by bumping
/// the blocks' refcounts; the page-generation snapshots stay consistent
/// because the address space (and its generation table, and its code
/// stamp) is cloned alongside.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    blocks: HashMap<(u64, u64), Entry, BuildHasherDefault<KeyHasher>>,
    /// The active version: lookups and inserts use `(pc, epoch)`.
    epoch: u64,
    /// Monotonic dispatch counter backing `Entry::last_hit`. Only the
    /// order of the ticks it hands out matters.
    tick: u64,
}

impl BlockCache {
    /// Probes the active-version entry at `pc` once, bumping its
    /// dispatch profile, and revalidates its block against `mem`. A
    /// [`Probe::Stale`] entry stays cached until the caller
    /// [`remove`](BlockCache::remove)s it.
    #[inline]
    pub(crate) fn hit(&mut self, pc: u64, mem: &AddressSpace) -> Probe<'_> {
        self.tick += 1;
        let tick = self.tick;
        let Some(entry) = self.blocks.get_mut(&(pc, self.epoch)) else {
            return Probe::Absent;
        };
        entry.heat = entry.heat.saturating_add(1);
        entry.last_hit = tick;
        if entry.revalidate(mem) {
            Probe::Valid(entry)
        } else {
            Probe::Stale
        }
    }

    /// The active-version block at `pc` without touching the profile
    /// (tests and introspection).
    #[cfg(test)]
    pub(crate) fn get(&self, pc: u64) -> Option<&Arc<CachedBlock>> {
        self.blocks.get(&(pc, self.epoch)).map(|entry| &entry.block)
    }

    /// On a miss at the active version: if the *previous* version still
    /// holds an entry for `pc` whose block validates against `mem`,
    /// re-key it to the active version (heat and recency preserved) and
    /// return it — the version swap. A previous-version entry that does
    /// not validate decodes pages the rewrite changed: it is dropped and
    /// reported [`Probe::Stale`]. The active key must be free.
    pub(crate) fn swap_forward(&mut self, pc: u64, mem: &AddressSpace) -> Probe<'_> {
        if self.epoch == 0 {
            return Probe::Absent;
        }
        let Some(mut entry) = self.blocks.remove(&(pc, self.epoch - 1)) else {
            return Probe::Absent;
        };
        if !entry.revalidate(mem) {
            return Probe::Stale;
        }
        self.tick += 1;
        entry.heat = entry.heat.saturating_add(1);
        entry.last_hit = self.tick;
        Probe::Valid(self.blocks.entry((pc, self.epoch)).or_insert(entry))
    }

    /// Caches `block`, just decoded from `mem`, under `(pc, active
    /// epoch)`, evicting a batch of the coldest entries first if the
    /// cache is at capacity, and returns the cached block with the
    /// number of entries evicted for capacity (the
    /// `block_cache.capacity_evictions` metric). An existing entry at
    /// the key keeps its dispatch profile.
    pub(crate) fn insert(
        &mut self,
        pc: u64,
        block: CachedBlock,
        mem: &AddressSpace,
    ) -> (&CachedBlock, u64) {
        let key = (pc, self.epoch);
        let mut evicted = 0u64;
        if self.blocks.len() >= MAX_CACHED_BLOCKS && !self.blocks.contains_key(&key) {
            evicted = self.evict_coldest(CAPACITY_EVICT_BATCH);
        }
        self.tick += 1;
        let block = Arc::new(block);
        let validated = mem.code_stamp();
        let entry = match self.blocks.entry(key) {
            hash_map::Entry::Occupied(occupied) => {
                let entry = occupied.into_mut();
                entry.block = block;
                entry.validated = validated;
                entry
            }
            hash_map::Entry::Vacant(vacant) => vacant.insert(Entry {
                block,
                heat: 0,
                last_hit: self.tick,
                validated,
            }),
        };
        (&entry.block, evicted)
    }

    /// Removes the `count` entries with the smallest `(heat, last_hit)`
    /// — cold first, then stale — and halves the survivors' heat so a
    /// once-hot entry cannot squat forever. Hot entries survive cap
    /// pressure by construction: a cold storm of fresh inserts ranks
    /// below anything dispatched more than a couple of times.
    fn evict_coldest(&mut self, count: usize) -> u64 {
        let mut order: Vec<(u32, u64, (u64, u64))> = self
            .blocks
            .iter()
            .map(|(&key, entry)| (entry.heat, entry.last_hit, key))
            .collect();
        order.sort_unstable();
        order.truncate(count);
        for &(_, _, key) in &order {
            self.blocks.remove(&key);
        }
        for entry in self.blocks.values_mut() {
            entry.heat /= 2;
        }
        order.len() as u64
    }

    /// Evicts the active-version entry at `pc`, if cached.
    pub(crate) fn remove(&mut self, pc: u64) {
        self.blocks.remove(&(pc, self.epoch));
    }

    /// The cache a customize commit hands the process that replaces
    /// this one: the active version's entries, each with its dispatch
    /// profile and validation stamp, under the next epoch. A carried
    /// entry is the previous version there, so it surfaces only through
    /// `swap_forward`, which revalidates it first. Entries of older
    /// versions stay behind: `swap_forward` probes one version back, so
    /// nothing could dispatch them after the carry. The engine's
    /// customize commit seeds the replacement's generation of every page
    /// a carried entry decodes from ([`code_pages`](BlockCache::code_pages));
    /// see `CommittedRestore::carry_block_caches`.
    pub fn carry(&self) -> BlockCache {
        let live = self
            .blocks
            .iter()
            .filter(|(&(_, version), _)| version == self.epoch);
        let mut blocks =
            HashMap::with_capacity_and_hasher(live.clone().count(), BuildHasherDefault::default());
        blocks.extend(live.map(|(&key, entry)| (key, entry.clone())));
        BlockCache {
            blocks,
            epoch: self.epoch + 1,
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

    /// The active rewrite epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Evicts every cached block, all versions. CRIU image swaps call
    /// this: a restored process's text was rebuilt from images that may
    /// carry arbitrary rewrites, so nothing decoded before the swap may
    /// survive it. (The engine's customize commit instead *carries* the
    /// active version with seeded generations; see
    /// [`carry`](BlockCache::carry).)
    pub fn flush(&mut self) {
        self.blocks.clear();
    }

    /// Number of blocks currently cached, across all versions.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_obj::{Perms, PAGE_SIZE};

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
        let hashes: Vec<u64> = (0..4096u64)
            .map(|i| hasher.hash_one((i << 40, 0u64)))
            .collect();
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

    /// The multi-version key: a carry hides the active entries from
    /// `get`/`hit` under the next epoch, `swap_forward` re-keys them
    /// (heat preserved), and a swap is one-shot.
    #[test]
    fn carry_hides_entries_and_swap_forward_rekeys() {
        let mut cache = BlockCache::default();
        let mut mem = one_page_space();
        cache.insert(0x1000, block_over(&mut mem, 0x1000), &mem);
        let heat_before = heat(cache.hit(0x1000, &mem)).expect("cached");

        let mut cache = cache.carry();
        assert_eq!(cache.epoch(), 1);
        assert!(cache.get(0x1000).is_none(), "old version is not active");
        assert!(matches!(cache.hit(0x1000, &mem), Probe::Absent));
        assert_eq!(cache.len(), 1, "the entry itself is carried");

        let swapped = heat(cache.swap_forward(0x1000, &mem)).expect("previous version");
        assert_eq!(
            swapped,
            heat_before + 1,
            "the swap keeps the dispatch profile"
        );
        assert!(
            cache.get(0x1000).is_some(),
            "re-keyed to the active version"
        );
        assert!(
            matches!(cache.swap_forward(0x1000, &mem), Probe::Absent),
            "swap is one-shot"
        );
    }

    /// A carry takes the active version only: an entry the last version
    /// never dispatched (still keyed one version back) is left behind
    /// with its page, and the active entries come back under `epoch + 1`
    /// through `swap_forward` with their profile and stamp.
    #[test]
    fn carry_keeps_only_the_active_version() {
        let mut mem = one_page_space();
        mem.map(0x2000, PAGE_SIZE, Perms::RX, "text2").unwrap();
        let mut cache = BlockCache::default();
        cache.insert(0x1000, block_over(&mut mem, 0x1000), &mem);
        let mut cache = cache.carry();
        cache.insert(0x2000, block_over(&mut mem, 0x2000), &mem);
        for _ in 0..3 {
            assert!(heat(cache.hit(0x2000, &mem)).is_some());
        }
        let stamp = cache.blocks[&(0x2000, 1)].validated;
        assert_eq!(cache.len(), 2, "one entry per version");

        let mut carried = cache.carry();
        assert_eq!(carried.epoch(), 2);
        assert_eq!(carried.len(), 1, "the older version is gone");
        assert_eq!(carried.code_pages().collect::<Vec<_>>(), vec![0x2000]);
        assert!(matches!(carried.swap_forward(0x1000, &mem), Probe::Absent));
        let entry = match carried.swap_forward(0x2000, &mem) {
            Probe::Valid(entry) => entry,
            Probe::Stale | Probe::Absent => panic!("the active entry is carried"),
        };
        assert_eq!(entry.heat, 4, "three hits and the swap");
        assert_eq!(entry.validated, stamp, "the stamp is carried");
        assert!(carried.get(0x2000).is_some(), "keyed under epoch + 1");
        assert_eq!(cache.len(), 2, "the source keeps every version");
    }

    /// A previous-version entry whose page changed is dropped by the
    /// swap, not re-keyed.
    #[test]
    fn swap_forward_drops_a_stale_previous_version() {
        let mut cache = BlockCache::default();
        let mut mem = one_page_space();
        cache.insert(0x1000, block_over(&mut mem, 0x1000), &mem);
        let mut cache = cache.carry();
        mem.write_unchecked(0x1000, &[0xCC]);
        assert!(matches!(cache.swap_forward(0x1000, &mem), Probe::Stale));
        assert!(cache.is_empty(), "the stale entry is gone");
    }

    /// The stamp gate: a change to any code page moves the space's
    /// stamp, and the next hit re-reads the block's generations; a clone
    /// of the space, whose table is equal, keeps the stamp. Another
    /// space never shares it, even with an equal code-write count, so a
    /// cache put next to it reads its table.
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
        assert_eq!(other.code_write_count(), mem.code_write_count());
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
            Probe::Valid(entry) => Some(entry.heat),
            Probe::Stale | Probe::Absent => None,
        }
    }
}
