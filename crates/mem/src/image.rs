//! Sparse functional memory image with a bump allocator.
//!
//! This sits on the simulator's hottest path: every functionally executed
//! load/store goes through [`DataMemory::read_u64`]/[`DataMemory::write_u64`],
//! and the timing model reads values again for prefetcher training and SVR
//! lane loads. The image therefore avoids the default SipHash `HashMap` on
//! every access: pages in the low "dense" address range (which covers the
//! bump-allocated heap of every workload) are resolved by direct indexing
//! into a flat page table, with a one-entry last-page cache in front; only
//! stray high pages fall back to an FxHash-style map.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use svr_isa::DataMemory;

const PAGE_WORDS: usize = 512; // 4 KiB pages of u64 words

/// Pages below this page number use the flat table (direct index); the range
/// covers [0, 1.25 GiB), comfortably containing [`HEAP_BASE`] plus every
/// workload's bump-allocated footprint. Higher pages use the spill map.
const DENSE_PAGES: u64 = 0x5_0000;

/// Sentinel in the flat table meaning "page not mapped".
const NO_SLOT: u32 = u32::MAX;

/// Reference-counted copy-on-write page. Cloning a [`MemImage`] (one per
/// simulated run: `Workload::instantiate`) bumps a refcount per page instead
/// of copying the whole footprint; a run then pays one 4 KiB copy per page it
/// actually dirties ([`Arc::make_mut`] on first write). Checkpoint journaling
/// rides the same mechanism: saving a pre-write page is an `Arc` clone.
type Page = Arc<[u64; PAGE_WORDS]>;

/// A fresh zeroed page.
fn zero_page() -> Page {
    Arc::new([0; PAGE_WORDS])
}

/// FxHash-style hasher for the spill map: a single multiply-rotate per
/// `u64` write instead of SipHash's full permutation. Not DoS-resistant,
/// which is fine for simulator-internal page numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A sparse, page-backed flat memory holding the *functional* data of a
/// workload (the caches in this crate model timing only).
///
/// Unmapped reads return 0 so transient/runahead accesses are always safe.
/// A bump allocator hands out disjoint regions for workload data structures.
///
/// # Examples
///
/// ```
/// use svr_mem::MemImage;
/// use svr_isa::DataMemory;
///
/// let mut img = MemImage::new();
/// let a = img.alloc_array(&[1, 2, 3]);
/// assert_eq!(img.read_u64(a + 8), 2);
/// img.write_u64(a + 8, 99);
/// assert_eq!(img.read_u64(a + 8), 99);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    /// Page storage, in mapping order; never shrinks, so slots are stable.
    pages: Vec<Page>,
    /// Flat page table for dense pages: page number → slot + sentinel.
    /// Grown lazily to the highest mapped dense page.
    table: Vec<u32>,
    /// Two-entry last-page cache: `[(page_number, slot); 2]`, most recent
    /// first. Repeated accesses to the same page (streaming and line-local
    /// accesses) skip the table lookup entirely; the second entry keeps a
    /// sequential stream hitting when it is interleaved with a scattered one
    /// (e.g. a stride-indirect gather, which thrashes a one-entry cache).
    last: Cell<[(u64, u32); 2]>,
    /// Pages at or above [`DENSE_PAGES`] (rare: absolute-address tests).
    spill: HashMap<u64, Page, FxBuildHasher>,
    brk: u64,
    /// Copy-on-first-write checkpoint journal (warp-mode checkpointing).
    /// `None` on the detailed hot path, so tracking costs one predictable
    /// branch per write.
    track: Option<TrackState>,
}

/// Active checkpoint journal: the pre-write contents of every page dirtied
/// since [`MemImage::begin_tracking`] (`None` = page was unmapped).
#[derive(Debug, Clone, Default)]
struct TrackState {
    saved: HashMap<u64, Option<Page>, FxBuildHasher>,
    brk: u64,
}

/// Dirty-page delta of a [`MemImage`] between [`MemImage::begin_tracking`]
/// and [`MemImage::take_delta`]: enough to roll the image back to the
/// checkpoint with [`MemImage::restore`]. Deltas are cheap when the run
/// segment touched few pages — cost is proportional to pages dirtied, not to
/// image size.
#[derive(Debug, Clone)]
pub struct MemDelta {
    /// `(page, pre-write contents)` sorted by page; `None` = unmapped at
    /// checkpoint time.
    saved: Vec<(u64, Option<Page>)>,
    brk: u64,
}

impl MemDelta {
    /// Number of pages dirtied since the checkpoint.
    pub fn dirty_pages(&self) -> usize {
        self.saved.len()
    }
}

/// Base of the bump-allocated heap.
const HEAP_BASE: u64 = 0x1000_0000;

impl MemImage {
    /// Creates an empty image; allocation starts at a fixed heap base.
    pub fn new() -> Self {
        MemImage {
            pages: Vec::new(),
            table: Vec::new(),
            last: Cell::new([(u64::MAX, NO_SLOT); 2]),
            spill: HashMap::default(),
            brk: HEAP_BASE,
            track: None,
        }
    }

    /// Starts (or restarts) checkpoint tracking: subsequent writes journal
    /// each page's pre-write contents on first touch. Capture the matching
    /// delta with [`MemImage::take_delta`].
    pub fn begin_tracking(&mut self) {
        self.track = Some(TrackState {
            saved: HashMap::default(),
            brk: self.brk,
        });
    }

    /// Whether checkpoint tracking is active.
    pub fn tracking(&self) -> bool {
        self.track.is_some()
    }

    /// Stops tracking and returns the dirty-page delta accumulated since
    /// [`MemImage::begin_tracking`], or `None` when tracking was never
    /// started.
    pub fn take_delta(&mut self) -> Option<MemDelta> {
        let tr = self.track.take()?;
        let mut saved: Vec<(u64, Option<Page>)> = tr.saved.into_iter().collect();
        saved.sort_unstable_by_key(|&(page, _)| page);
        Some(MemDelta {
            saved,
            brk: tr.brk,
        })
    }

    /// Rolls the image back to the checkpoint captured in `delta`: every
    /// dirtied page gets its pre-write contents back, and the bump allocator
    /// is rewound. Pages first mapped after the checkpoint are zeroed in
    /// place (dense) or unmapped (spill) — reads of a zeroed mapped page are
    /// indistinguishable from an unmapped one, so the restored image is
    /// read-identical to the checkpoint state.
    pub fn restore(&mut self, delta: &MemDelta) {
        for (page, prev) in &delta.saved {
            let page = *page;
            if page < DENSE_PAGES {
                let slot = self.dense_slot(page);
                if slot == NO_SLOT {
                    // A tracked write always maps the page first, so the
                    // slot exists; tolerate absence for robustness.
                    continue;
                }
                match prev {
                    Some(p) => self.pages[slot as usize] = Arc::clone(p),
                    None => self.pages[slot as usize] = zero_page(),
                }
            } else {
                match prev {
                    Some(p) => {
                        self.spill.insert(page, p.clone());
                    }
                    None => {
                        self.spill.remove(&page);
                    }
                }
            }
        }
        self.brk = delta.brk;
        // Drop the last-page cache: it must never outlive a rollback. Today
        // it stores `(page, slot)` pairs and dense slots are stable across
        // `restore`, but that is an implementation accident — anything that
        // remaps a page (spill removal above, or a future compaction) would
        // leave a hit on stale storage, a bug no read would ever report.
        self.last.set([(u64::MAX, NO_SLOT); 2]);
    }

    /// Order-independent hash of the image's readable contents: every
    /// nonzero word, keyed by address, in canonical (ascending page, word)
    /// order. Zero-filled mapped pages hash identically to unmapped ones, so
    /// two images that answer every `read_u64` the same way hash the same —
    /// the equality notion warp-vs-detailed equivalence tests need.
    pub fn content_hash(&self) -> u64 {
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h = (h ^ x).wrapping_mul(FNV_PRIME);
        };
        for (page, &slot) in self.table.iter().enumerate() {
            if slot == NO_SLOT {
                continue;
            }
            for (w, &v) in self.pages[slot as usize].iter().enumerate() {
                if v != 0 {
                    mix(page as u64);
                    mix(w as u64);
                    mix(v);
                }
            }
        }
        let mut spill_pages: Vec<u64> = self.spill.keys().copied().collect();
        spill_pages.sort_unstable();
        for page in spill_pages {
            for (w, &v) in self.spill[&page].iter().enumerate() {
                if v != 0 {
                    mix(page);
                    mix(w as u64);
                    mix(v);
                }
            }
        }
        h
    }

    /// Journals `page`'s pre-write contents on its first tracked write.
    #[cold]
    fn note_write(&mut self, page: u64) {
        let already = self
            .track
            .as_ref()
            .is_some_and(|t| t.saved.contains_key(&page));
        if already {
            return;
        }
        let prev: Option<Page> = if page < DENSE_PAGES {
            let slot = self.dense_slot(page);
            if slot == NO_SLOT {
                None
            } else {
                // Arc clone: the journal shares the pre-write page; the
                // write below copies it via `make_mut`.
                Some(Arc::clone(&self.pages[slot as usize]))
            }
        } else {
            self.spill.get(&page).map(Arc::clone)
        };
        if let Some(tr) = self.track.as_mut() {
            tr.saved.insert(page, prev);
        }
    }

    /// Allocates `n` 64-bit words, 64-byte aligned; returns the base address.
    /// The region is zero-initialized (by virtue of sparseness).
    pub fn alloc_words(&mut self, n: u64) -> u64 {
        let base = self.brk;
        self.brk += n * 8;
        // Keep allocations line-aligned so arrays do not share cache lines.
        self.brk = (self.brk + 63) & !63;
        base
    }

    /// Allocates and initializes an array of words; returns the base address.
    pub fn alloc_array(&mut self, words: &[u64]) -> u64 {
        let base = self.alloc_words(words.len() as u64);
        for (i, &w) in words.iter().enumerate() {
            self.write_u64(base + 8 * i as u64, w);
        }
        base
    }

    /// Total bytes currently allocated by the bump allocator.
    pub fn allocated_bytes(&self) -> u64 {
        self.brk - HEAP_BASE
    }

    /// Number of distinct mapped 4 KiB pages (touched by writes).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len() + self.spill.len()
    }

    /// Looks up the slot of a dense page, consulting the last-page cache.
    #[inline]
    fn dense_slot(&self, page: u64) -> u32 {
        let [e0, e1] = self.last.get();
        if e0.0 == page {
            return e0.1;
        }
        if e1.0 == page {
            self.last.set([e1, e0]);
            return e1.1;
        }
        let slot = match self.table.get(page as usize) {
            Some(&s) => s,
            None => NO_SLOT,
        };
        if slot != NO_SLOT {
            self.last.set([(page, slot), e0]);
        }
        slot
    }
}

impl DataMemory for MemImage {
    #[inline]
    fn read_u64(&self, addr: u64) -> u64 {
        let page = addr >> 12;
        let word = ((addr >> 3) & (PAGE_WORDS as u64 - 1)) as usize;
        if page < DENSE_PAGES {
            let slot = self.dense_slot(page);
            if slot == NO_SLOT {
                return 0;
            }
            return self.pages[slot as usize][word];
        }
        match self.spill.get(&page) {
            Some(p) => p[word],
            None => 0,
        }
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        let page = addr >> 12;
        let word = ((addr >> 3) & (PAGE_WORDS as u64 - 1)) as usize;
        if self.track.is_some() {
            self.note_write(page);
        }
        if page < DENSE_PAGES {
            let mut slot = self.dense_slot(page);
            if slot == NO_SLOT {
                if self.table.len() <= page as usize {
                    self.table.resize(page as usize + 1, NO_SLOT);
                }
                slot = self.pages.len() as u32;
                self.pages.push(zero_page());
                self.table[page as usize] = slot;
                self.last.set([(page, slot), self.last.get()[0]]);
            }
            Arc::make_mut(&mut self.pages[slot as usize])[word] = value;
            return;
        }
        Arc::make_mut(self.spill.entry(page).or_insert_with(zero_page))[word] = value;
    }

    /// Page-aware bulk read: resolves each page once and memcpys whole runs
    /// instead of taking the per-word lookup path. Result is identical to
    /// the trait's default word-by-word loop.
    fn read_block(&self, addr: u64, out: &mut [u64]) {
        let mut i = 0usize;
        while i < out.len() {
            let a = addr.wrapping_add(8 * i as u64);
            let page = a >> 12;
            let word = ((a >> 3) & (PAGE_WORDS as u64 - 1)) as usize;
            let run = (PAGE_WORDS - word).min(out.len() - i);
            let src: Option<&Page> = if page < DENSE_PAGES {
                let slot = self.dense_slot(page);
                if slot == NO_SLOT {
                    None
                } else {
                    Some(&self.pages[slot as usize])
                }
            } else {
                self.spill.get(&page)
            };
            match src {
                Some(p) => out[i..i + run].copy_from_slice(&p[word..word + run]),
                None => out[i..i + run].fill(0),
            }
            i += run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let img = MemImage::new();
        assert_eq!(img.read_u64(0x0dea_dbee_f000), 0);
        assert_eq!(img.read_u64(0x10), 0);
    }

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut img = MemImage::new();
        for i in 0..2000u64 {
            img.write_u64(i * 8, i * 3);
        }
        for i in 0..2000u64 {
            assert_eq!(img.read_u64(i * 8), i * 3);
        }
        assert!(img.mapped_pages() >= 3);
    }

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut img = MemImage::new();
        let a = img.alloc_words(5);
        let b = img.alloc_words(1);
        assert!(b >= a + 5 * 8);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(img.allocated_bytes() >= 6 * 8);
    }

    #[test]
    fn alloc_array_initializes() {
        let mut img = MemImage::new();
        let a = img.alloc_array(&[7, 8, 9]);
        assert_eq!(img.read_u64(a), 7);
        assert_eq!(img.read_u64(a + 16), 9);
    }

    #[test]
    fn misaligned_addr_maps_to_containing_word() {
        let mut img = MemImage::new();
        img.write_u64(64, 42);
        // Address within the same word reads the same storage.
        assert_eq!(img.read_u64(64), 42);
    }

    #[test]
    fn spill_pages_round_trip() {
        // Addresses above the dense range exercise the FxHash spill map.
        let mut img = MemImage::new();
        let high = DENSE_PAGES << 12;
        img.write_u64(high, 11);
        img.write_u64(high + 0x1_0000_0000, 22);
        assert_eq!(img.read_u64(high), 11);
        assert_eq!(img.read_u64(high + 0x1_0000_0000), 22);
        assert_eq!(img.read_u64(high + 8), 0);
        assert_eq!(img.mapped_pages(), 2);
    }

    #[test]
    fn dense_spill_boundary_is_consistent() {
        let mut img = MemImage::new();
        let last_dense = (DENSE_PAGES << 12) - 8;
        let first_spill = DENSE_PAGES << 12;
        img.write_u64(last_dense, 1);
        img.write_u64(first_spill, 2);
        assert_eq!(img.read_u64(last_dense), 1);
        assert_eq!(img.read_u64(first_spill), 2);
    }

    #[test]
    fn interleaved_pages_keep_last_page_cache_coherent() {
        // Alternate between two pages so the one-entry cache thrashes; every
        // read must still see the latest write.
        let mut img = MemImage::new();
        let (a, b) = (HEAP_BASE, HEAP_BASE + 0x10_0000);
        for i in 0..100u64 {
            img.write_u64(a, i);
            img.write_u64(b, i * 2);
            assert_eq!(img.read_u64(a), i);
            assert_eq!(img.read_u64(b), i * 2);
        }
        assert_eq!(img.mapped_pages(), 2);
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut img = MemImage::new();
        let a = img.alloc_array(&[1, 2, 3, 4]);
        let before = img.content_hash();
        let before_brk = img.allocated_bytes();

        img.begin_tracking();
        img.write_u64(a, 99); // dirty an existing page
        let b = img.alloc_words(PAGE_WORDS as u64 * 2); // map new pages
        img.write_u64(b, 7);
        img.write_u64(b + 4096, 8);
        let high = (DENSE_PAGES + 5) << 12; // dirty the spill map too
        img.write_u64(high, 55);
        let delta = img.take_delta().expect("tracking was active");
        assert!(delta.dirty_pages() >= 3);
        assert_ne!(img.content_hash(), before);

        img.restore(&delta);
        assert_eq!(img.content_hash(), before);
        assert_eq!(img.allocated_bytes(), before_brk);
        assert_eq!(img.read_u64(a), 1);
        assert_eq!(img.read_u64(b), 0);
        assert_eq!(img.read_u64(high), 0);
        assert!(!img.tracking());
    }

    #[test]
    fn restore_is_repeatable_from_same_delta() {
        let mut img = MemImage::new();
        let a = img.alloc_array(&[10, 20]);
        let before = img.content_hash();
        img.begin_tracking();
        img.write_u64(a, 1);
        let delta = img.take_delta().unwrap();
        img.restore(&delta);
        // Re-dirty and roll back again with the same delta.
        img.write_u64(a, 2);
        img.restore(&delta);
        assert_eq!(img.content_hash(), before);
        assert_eq!(img.read_u64(a), 10);
    }

    #[test]
    fn restore_invalidates_last_page_cache() {
        // Prime the two-entry cache on a page, roll back across a restore,
        // then read through the same page again: the read must go back
        // through the table and see the restored contents, never a cached
        // pre-restore resolution.
        let mut img = MemImage::new();
        let a = img.alloc_array(&[1, 2]);
        let b = a + 0x10_0000; // second page, fills the other cache entry
        img.write_u64(b, 3);
        img.begin_tracking();
        img.write_u64(a, 77);
        img.write_u64(b, 88);
        let delta = img.take_delta().unwrap();
        // Both cache entries now point at the dirtied pages.
        assert_eq!(img.read_u64(a), 77);
        assert_eq!(img.read_u64(b), 88);
        img.restore(&delta);
        assert_eq!(img.last.get(), [(u64::MAX, NO_SLOT); 2], "cache dropped");
        assert_eq!(img.read_u64(a), 1, "read-through sees restored page");
        assert_eq!(img.read_u64(b), 3);
    }

    #[test]
    fn take_delta_without_tracking_is_none() {
        let mut img = MemImage::new();
        assert!(img.take_delta().is_none());
    }

    #[test]
    fn content_hash_ignores_zero_filled_pages() {
        let mut a = MemImage::new();
        let mut b = MemImage::new();
        a.write_u64(HEAP_BASE, 42);
        b.write_u64(HEAP_BASE, 42);
        // Map an extra page in `b` but leave it all-zero: reads cannot tell
        // the images apart, so the hashes must match.
        b.write_u64(HEAP_BASE + 0x10_0000, 0);
        assert_eq!(a.content_hash(), b.content_hash());
        b.write_u64(HEAP_BASE + 0x10_0000, 1);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn read_block_matches_word_loop() {
        let mut img = MemImage::new();
        let base = img.alloc_words(PAGE_WORDS as u64 + 100);
        for i in 0..PAGE_WORDS as u64 + 100 {
            if i % 3 != 0 {
                img.write_u64(base + 8 * i, i * 7);
            }
        }
        // Span two pages plus trailing unmapped space.
        let start = base + 8 * 100;
        let mut bulk = vec![0u64; PAGE_WORDS + 200];
        img.read_block(start, &mut bulk);
        for (i, &v) in bulk.iter().enumerate() {
            assert_eq!(v, img.read_u64(start + 8 * i as u64), "word {i}");
        }
        // Spill-range block reads agree with the default impl too.
        let high = (DENSE_PAGES + 1) << 12;
        img.write_u64(high + 24, 9);
        let mut spill = [0u64; 8];
        img.read_block(high, &mut spill);
        assert_eq!(spill, [0, 0, 0, 9, 0, 0, 0, 0]);
    }

    #[test]
    fn clone_is_independent() {
        let mut img = MemImage::new();
        img.write_u64(HEAP_BASE, 5);
        let snap = img.clone();
        img.write_u64(HEAP_BASE, 9);
        assert_eq!(snap.read_u64(HEAP_BASE), 5);
        assert_eq!(img.read_u64(HEAP_BASE), 9);
    }
}
