//! Content-addressed, refcounted page storage.
//!
//! A fleet of processes running the same binary dumps the same text,
//! rodata and (mostly) heap pages N times over; repeated incremental
//! cycles of one process dump the same clean pages again and again. The
//! [`PageStore`] collapses all of that to **one stored copy per distinct
//! page content**: pages are keyed by a content hash ([`PageKey`]) and
//! refcounted, so a checkpoint store holds page *references* while the
//! bytes live here exactly once.
//!
//! Invariants:
//!
//! * **Bit identity** — [`PageStore::intern`] hands back a frame
//!   holding exactly the bytes interned: a copy made on first sight, or
//!   on a hash hit the frame it already holds, whose bytes it compared
//!   equal.
//! * **Refcount lifecycle** — every `intern` takes one reference on its
//!   page, and so does a `retain` of a key already held;
//!   [`PageStore::release`] drops one, and the store lets go of a page's
//!   frame exactly when its last reference goes. A
//!   [`CheckpointStore`](crate::CheckpointStore) entry holds one
//!   reference per page it keeps, however many of its pages share one
//!   frame: `put_full` interns each distinct frame once and retains its
//!   key for every later page on it (tested by property in
//!   `tests/page_store.rs` and `tests/zero_copy.rs`).
//! * **Accounting** — [`PageStore::logical_bytes`] counts what callers
//!   handed in (references × page size), [`PageStore::unique_bytes`]
//!   counts what is actually held; their ratio is the dedup win the
//!   fleet experiment reports.

use crate::CriuError;
use dynacut_obj::{PAGE_LEN, PAGE_SIZE};
use dynacut_vm::{Page, SharedFrame};
use std::collections::BTreeMap;

/// Content hash of one page: 128-bit FNV-1a taken a word at a time.
///
/// 128 bits keep accidental collisions out of reach for any realistic
/// store size; [`PageStore::intern`] additionally compares bytes on
/// every hash hit and fails with [`CriuError::PageCollision`], so a
/// collision can never silently hand a guest the wrong page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageKey(u128);

impl PageKey {
    /// Hashes one page's bytes: one FNV-1a-128 step per little-endian
    /// `u64` word, one per byte of a tail shorter than a word, and a
    /// final step over the input length — without it `[0; 8]` and `[0]`
    /// would share a key. Each step (xor, then multiply by an odd prime)
    /// is a bijection of the state, so inputs of one length that differ
    /// in any single word or byte always get distinct keys.
    pub fn of(bytes: &[u8]) -> Self {
        const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
        let step = |hash: u128, value: u128| (hash ^ value).wrapping_mul(PRIME);
        let mut words = bytes.chunks_exact(8);
        let mut hash = OFFSET;
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8-byte words");
            hash = step(hash, u128::from(u64::from_le_bytes(word)));
        }
        for &byte in words.remainder() {
            hash = step(hash, u128::from(byte));
        }
        PageKey(step(hash, bytes.len() as u128))
    }
}

impl std::fmt::Display for PageKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page-{:032x}", self.0)
    }
}

#[derive(Debug, Clone)]
struct PageEntry {
    /// The page bytes, held as a [`SharedFrame`] that every checkpoint
    /// entry keeping the page shares, and restores hand straight into
    /// guest address spaces.
    frame: SharedFrame,
    refs: u64,
}

/// The content-addressed store: hash → (page frame, refcount).
///
/// A reference is taken by [`intern`](PageStore::intern), which hashes
/// the bytes and compares them on a hit, or, for a caller that already
/// knows the key of these very bytes, by `retain`, which does neither.
///
/// Store refcounts (`refs`) and frame handles are deliberately distinct
/// lifetimes: `refs` counts *checkpoint* references (what the store must
/// keep retrievable), while [`SharedFrame::handle_count`] counts every
/// live alias including pages mapped into running address spaces. A
/// frame whose store entry is released stays alive for as long as any
/// guest still maps it — but [`PageStore::get`] fails, because the
/// *store* no longer vouches for it.
#[derive(Debug, Clone, Default)]
pub struct PageStore {
    pages: BTreeMap<PageKey, PageEntry>,
    /// Cumulative bytes physically copied into the store by first-sight
    /// interns. Hash hits copy nothing; this counter is the store-side
    /// half of the zero-copy restore accounting.
    copied_bytes: u64,
    /// Test hook: overrides the content hash so a unit test can force two
    /// distinct pages onto one key and exercise the collision guard.
    #[cfg(test)]
    pub(crate) hasher: Option<fn(&[u8]) -> PageKey>,
}

impl PageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn key_of(&self, bytes: &[u8]) -> PageKey {
        #[cfg(test)]
        if let Some(hasher) = self.hasher {
            return hasher(bytes);
        }
        PageKey::of(bytes)
    }

    /// Interns one page, bumping its refcount, and returns its key with
    /// the store's frame for it. The bytes are copied into a new frame
    /// only on first sight; a hit hands out the frame already held.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::PageCollision`] when the key is already
    /// held by a page with *different* bytes. Bytes are compared on every
    /// hash hit — in release builds too — because handing out the wrong
    /// page would silently corrupt a restored guest.
    pub fn intern(&mut self, bytes: &Page) -> Result<(PageKey, SharedFrame), CriuError> {
        let key = self.key_of(bytes);
        match self.pages.get_mut(&key) {
            Some(entry) => {
                if entry.frame.bytes() != bytes {
                    return Err(CriuError::PageCollision(key));
                }
                entry.refs += 1;
                Ok((key, entry.frame.clone()))
            }
            None => {
                self.copied_bytes += PAGE_SIZE;
                let frame = SharedFrame::new(bytes);
                self.pages.insert(
                    key,
                    PageEntry {
                        frame: frame.clone(),
                        refs: 1,
                    },
                );
                Ok((key, frame))
            }
        }
    }

    /// Takes one more reference on a page the store holds and hands back
    /// its frame, as an [`intern`](PageStore::intern) of the same bytes
    /// would, but hashes and compares nothing: for a caller that knows
    /// its bytes are the page's, such as a second handle on a frame it
    /// has just interned.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::UnknownPage`] when the key is not held.
    pub(crate) fn retain(&mut self, key: PageKey) -> Result<SharedFrame, CriuError> {
        let entry = self
            .pages
            .get_mut(&key)
            .ok_or(CriuError::UnknownPage(key))?;
        entry.refs += 1;
        Ok(entry.frame.clone())
    }

    /// The bytes of an interned page, if it is still referenced.
    pub fn get(&self, key: PageKey) -> Option<&[u8]> {
        self.pages.get(&key).map(|entry| &entry.frame.bytes()[..])
    }

    /// Cumulative bytes physically copied into the store by first-sight
    /// interns (hash hits copy nothing). Monotonic: never decremented by
    /// releases.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes
    }

    /// Current refcount of a page (0 if absent).
    pub fn refs(&self, key: PageKey) -> u64 {
        self.pages.get(&key).map_or(0, |entry| entry.refs)
    }

    /// Drops one reference; the bytes are freed when the last one goes.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::UnknownPage`] when the key is not held —
    /// a double release or a release of something never interned. The
    /// store is unchanged on error.
    pub fn release(&mut self, key: PageKey) -> Result<(), CriuError> {
        let entry = self
            .pages
            .get_mut(&key)
            .ok_or(CriuError::UnknownPage(key))?;
        entry.refs -= 1;
        if entry.refs == 0 {
            self.pages.remove(&key);
        }
        Ok(())
    }

    /// Number of distinct pages held.
    pub fn unique_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes actually held: one copy per distinct page content.
    pub fn unique_bytes(&self) -> usize {
        self.pages.len() * PAGE_LEN
    }

    /// Bytes callers handed in: every reference counts its page size.
    /// This is what a store without dedup would hold.
    pub fn logical_bytes(&self) -> usize {
        let refs: u64 = self.pages.values().map(|entry| entry.refs).sum();
        usize::try_from(refs).map_or(usize::MAX, |refs| refs.saturating_mul(PAGE_LEN))
    }

    /// Bytes shared away: `logical_bytes − unique_bytes`, i.e. the
    /// copies the content addressing made unnecessary.
    pub fn shared_bytes(&self) -> usize {
        self.logical_bytes() - self.unique_bytes()
    }

    /// Dedup win: `logical_bytes / unique_bytes` (1.0 when empty). ≥ 1.0
    /// by construction.
    pub fn dedup_ratio(&self) -> f64 {
        let unique = self.unique_bytes();
        if unique == 0 {
            return 1.0;
        }
        self.logical_bytes() as f64 / unique as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn page(fill: u8) -> Page {
        [fill; PAGE_LEN]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every byte of a page reaches the key: flipping any one of
        /// them, in any bit pattern, changes it.
        #[test]
        fn page_key_changes_when_any_byte_flips(
            bytes in proptest::collection::vec(any::<u8>(), PAGE_LEN),
            position in any::<proptest::sample::Index>(),
            flip in 1u8..=255,
        ) {
            let mut flipped = bytes.clone();
            flipped[position.index(bytes.len())] ^= flip;
            prop_assert_ne!(PageKey::of(&bytes), PageKey::of(&flipped));
        }

        /// Tails shorter than a word are hashed too: for every length up
        /// to two words short of a byte, each byte of the input — the
        /// trailing ones included — changes the key.
        #[test]
        fn page_key_hashes_tails_of_1_to_15_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 15),
            flip in 1u8..=255,
        ) {
            for len in 1..=15 {
                let input = &bytes[..len];
                for position in 0..len {
                    let mut flipped = input.to_vec();
                    flipped[position] ^= flip;
                    prop_assert!(
                        PageKey::of(input) != PageKey::of(&flipped),
                        "len {} byte {}",
                        len,
                        position
                    );
                }
            }
        }
    }

    /// The length is folded in last, so zero words and zero tail bytes
    /// cannot stand in for one another.
    #[test]
    fn page_key_separates_inputs_that_differ_only_in_length() {
        let pairs: [(&[u8], &[u8]); 3] = [(&[], &[0]), (&[0; 8], &[0; 16]), (&[0; 8], &[0])];
        for (a, b) in pairs {
            assert_ne!(PageKey::of(a), PageKey::of(b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn intern_dedups_and_refcounts() {
        let mut store = PageStore::new();
        let (a1, frame_a1) = store.intern(&page(0xAA)).unwrap();
        let (a2, frame_a2) = store.intern(&page(0xAA)).unwrap();
        let (b, _) = store.intern(&page(0xBB)).unwrap();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert!(
            std::ptr::eq(frame_a1.bytes(), frame_a2.bytes()),
            "a hit hands out the frame already held"
        );
        assert_eq!(store.unique_pages(), 2);
        assert_eq!(store.refs(a1), 2);
        assert_eq!(store.refs(b), 1);
        assert_eq!(store.logical_bytes(), 3 * PAGE_LEN);
        assert_eq!(store.unique_bytes(), 2 * PAGE_LEN);
        assert_eq!(store.shared_bytes(), PAGE_LEN);
    }

    #[test]
    fn release_frees_at_zero_refs() {
        let mut store = PageStore::new();
        let (key, _) = store.intern(&page(0x11)).unwrap();
        store.intern(&page(0x11)).unwrap();
        store.release(key).unwrap();
        assert_eq!(store.refs(key), 1);
        assert!(store.get(key).is_some());
        store.release(key).unwrap();
        assert_eq!(store.refs(key), 0);
        assert!(store.get(key).is_none());
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.dedup_ratio(), 1.0);
    }

    #[test]
    fn copied_bytes_counts_only_first_sight_interns() {
        let mut store = PageStore::new();
        store.intern(&page(0x01)).unwrap();
        store.intern(&page(0x01)).unwrap();
        store.intern(&page(0x02)).unwrap();
        assert_eq!(
            store.copied_bytes(),
            2 * PAGE_SIZE,
            "hash hits copy nothing"
        );
    }

    #[test]
    fn frames_outlive_released_entries_but_store_lookups_fail() {
        let mut store = PageStore::new();
        let (key, frame) = store.intern(&page(0x77)).unwrap();
        store.release(key).unwrap();
        assert!(store.get(key).is_none(), "store no longer vouches");
        assert_eq!(
            frame.bytes(),
            &page(0x77),
            "the handle keeps the bytes alive"
        );
        assert_eq!(frame.handle_count(), 1);
    }

    #[test]
    fn reintern_after_release_recopies_and_yields_a_fresh_frame() {
        let mut store = PageStore::new();
        let (key, old) = store.intern(&page(0x33)).unwrap();
        store.release(key).unwrap();
        let (key2, fresh) = store.intern(&page(0x33)).unwrap();
        assert_eq!(key, key2, "content addressing is stable");
        assert_eq!(store.copied_bytes(), 2 * PAGE_SIZE);
        assert_eq!(old.bytes(), fresh.bytes());
        assert!(!std::ptr::eq(old.bytes(), fresh.bytes()), "a fresh copy");
        assert_eq!(old.handle_count(), 1, "old frame is not resurrected");
    }

    /// Regression (PR 7): a hash collision used to be guarded only by a
    /// `debug_assert_eq!` — release builds would silently alias two
    /// distinct pages onto one entry and hand restores the wrong bytes.
    /// The injected hasher maps *everything* to one key, so the second
    /// distinct page is a guaranteed collision.
    #[test]
    fn intern_refuses_hash_collisions() {
        let mut store = PageStore::new();
        store.hasher = Some(|_| PageKey(0xDEAD_BEEF));
        let (key, _) = store.intern(&page(0xAA)).unwrap();
        assert_eq!(key, PageKey(0xDEAD_BEEF));
        // Same bytes, same key: a legitimate dedup hit.
        store.intern(&page(0xAA)).unwrap();
        assert_eq!(store.refs(key), 2);
        // Different bytes, same key: refused, store untouched.
        let err = store.intern(&page(0xBB)).unwrap_err();
        assert_eq!(err, CriuError::PageCollision(key));
        assert_eq!(store.refs(key), 2, "failed intern takes no reference");
        assert_eq!(store.unique_pages(), 1);
        assert_eq!(store.copied_bytes(), PAGE_SIZE, "collision copies nothing");
        assert_eq!(
            store.get(key).unwrap(),
            &page(0xAA)[..],
            "original bytes intact"
        );
    }

    /// Regression (PR 7): releasing an unknown key used to be a silent
    /// no-op, masking double-release bugs from the leak invariant.
    #[test]
    fn release_of_unknown_key_is_a_typed_error() {
        let mut store = PageStore::new();
        let never = PageKey::of(&page(0x42));
        assert_eq!(store.release(never), Err(CriuError::UnknownPage(never)));
        let (key, _) = store.intern(&page(0x42)).unwrap();
        store.release(key).unwrap();
        assert_eq!(
            store.release(key),
            Err(CriuError::UnknownPage(key)),
            "double release is reported, not swallowed"
        );
    }
}
