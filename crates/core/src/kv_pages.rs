//! Paged KV-cache allocation for the serving simulator.
//!
//! PR 3's serving layer spilled a victim session's *entire* KV cache on
//! every eviction — simple, but it overstates migration traffic versus
//! block-granular schemes (vLLM's paged attention, VEDA's voting-based
//! eviction): when the scheduler only needs room for one more decode step,
//! writing out a whole multi-megabyte cache is waste. This module provides
//! the page-granular alternative behind
//! [`KvPolicy::PagedLru`](crate::serve::KvPolicy):
//!
//! * The KV region is carved into fixed-size pages of
//!   [`ServeConfig::page_bytes`](crate::serve::ServeConfig). A session
//!   holding `n` KV bytes owns `ceil(n / page_bytes)` pages; only the last
//!   page may be partially filled, and transfers move the *valid* bytes of
//!   a page (a software-managed scratchpad does not write dead bytes).
//! * [`KvPageAllocator`] owns the page pool: a LIFO free list, a
//!   per-session page table, and per-page LRU metadata ([`TouchKey`], the
//!   same `(last step tick, admission sequence, request id)` recency triple
//!   the whole-cache policies order victims by).
//! * Eviction peels **tail pages** one at a time from the session owning
//!   the stalest page ([`KvPageAllocator::lru_page`]). Within one session
//!   every page is equally stale — attention reads the whole cache each
//!   step — so peeling from the tail keeps the resident region a prefix
//!   and the byte arithmetic exact.
//!
//! The serving loop remains the budget enforcer (in bytes, so that
//! `Fifo`/`Lru`/`PagedLru` share one accounting scheme and
//! `ServeReport::peak_kv_bytes <= budget` holds exactly); the allocator is
//! the source of truth for page identity, occupancy and fragmentation. Its
//! conservation invariant — every page is either free or in exactly one
//! page table — is property-tested in `tests/kv_paging.rs`. Under the
//! cluster API ([`crate::cluster`]) every chip materializes its own pool
//! per serving run, and evicted pages may migrate to a remote chip's pool
//! over the NoC instead of spilling to DRAM.
//!
//! # Examples
//!
//! ```
//! use meadow_core::kv_pages::KvPageAllocator;
//!
//! # fn main() -> Result<(), meadow_core::CoreError> {
//! // A 16-page pool of 4 KiB pages.
//! let mut pool = KvPageAllocator::new(16, 4096)?;
//! assert_eq!(pool.pages_for(9000), 3); // 9000 B straddles three pages
//!
//! // Session 7 grows to three pages; a later eviction peels its tail.
//! pool.grow(7, 3, (1, 1, 7))?;
//! assert_eq!(pool.session_pages(7), 3);
//! let (page, owner) = pool.lru_page(|_| true).expect("pages are resident");
//! assert_eq!(owner, 7);
//! assert_eq!(pool.evict_tail(7), Some(page));
//! assert_eq!(pool.free_pages(), 14);
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use std::collections::BTreeMap;

/// Index of one page frame in the pool.
pub type PageId = u32;

/// Recency key ordering pages for LRU eviction: `(last step tick,
/// admission sequence, request id)` — smaller is staler. All pages of one
/// session share a key (attention touches the whole cache every step), so
/// distinct sessions always compare by the unique `(sequence, id)` tail.
pub type TouchKey = (u64, u64, u32);

/// Fixed-page KV-cache pool with a free list, per-session page tables and
/// per-page LRU metadata. See the [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct KvPageAllocator {
    page_bytes: u64,
    /// Per-frame owner; `None` = on the free list.
    owner: Vec<Option<u32>>,
    /// Per-frame recency key (meaningful only while owned).
    touched: Vec<TouchKey>,
    /// LIFO free list of frame ids.
    free: Vec<PageId>,
    /// Session id → owned frames, in allocation order (the resident
    /// prefix; eviction peels from the back).
    tables: BTreeMap<u32, Vec<PageId>>,
}

impl KvPageAllocator {
    /// Creates a pool of `total_pages` frames of `page_bytes` each.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero-sized pages, an empty
    /// pool, or a pool larger than the `PageId` space.
    pub fn new(total_pages: usize, page_bytes: u64) -> Result<Self, CoreError> {
        if page_bytes == 0 {
            return Err(CoreError::InvalidConfig {
                param: "page_bytes",
                reason: "pages must hold at least one byte".into(),
            });
        }
        if total_pages == 0 {
            return Err(CoreError::InvalidConfig {
                param: "total_pages",
                reason: "the pool must hold at least one page".into(),
            });
        }
        if total_pages > PageId::MAX as usize {
            return Err(CoreError::InvalidConfig {
                param: "total_pages",
                reason: format!("{total_pages} exceeds the page-id space"),
            });
        }
        Ok(Self {
            page_bytes,
            owner: vec![None; total_pages],
            touched: vec![(0, 0, 0); total_pages],
            // LIFO: lowest ids come off first, deterministically.
            free: (0..total_pages as PageId).rev().collect(),
            tables: BTreeMap::new(),
        })
    }

    /// Creates a pool just large enough to hold `demand_bytes` of KV cache.
    ///
    /// # Errors
    ///
    /// See [`KvPageAllocator::new`]; `demand_bytes == 0` still allocates a
    /// single-page pool so the allocator is usable.
    pub fn for_demand(demand_bytes: u64, page_bytes: u64) -> Result<Self, CoreError> {
        if page_bytes == 0 {
            return Err(CoreError::InvalidConfig {
                param: "page_bytes",
                reason: "pages must hold at least one byte".into(),
            });
        }
        let pages = demand_bytes.div_ceil(page_bytes).max(1);
        Self::new(pages as usize, page_bytes)
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Total frames in the pool.
    pub fn total_pages(&self) -> usize {
        self.owner.len()
    }

    /// Frames currently on the free list.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Frames currently owned by any session.
    pub fn used_pages(&self) -> usize {
        self.total_pages() - self.free_pages()
    }

    /// Pages needed to hold `bytes` (zero bytes needs no pages).
    pub fn pages_for(&self, bytes: u64) -> usize {
        bytes.div_ceil(self.page_bytes) as usize
    }

    /// Frames owned by `session`.
    pub fn session_pages(&self, session: u32) -> usize {
        self.tables.get(&session).map_or(0, Vec::len)
    }

    /// Grows `session`'s page table to `target_pages` frames (a no-op when
    /// it already holds at least that many), stamping every owned frame
    /// with `key`. Returns the number of frames newly taken from the free
    /// list.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the free list cannot cover
    /// the growth; the allocator is unchanged in that case.
    pub fn grow(
        &mut self,
        session: u32,
        target_pages: usize,
        key: TouchKey,
    ) -> Result<usize, CoreError> {
        let held = self.session_pages(session);
        let needed = target_pages.saturating_sub(held);
        if needed > self.free.len() {
            return Err(CoreError::InvalidConfig {
                param: "kv_pages",
                reason: format!(
                    "session {session} needs {needed} more pages, only {} free of {}",
                    self.free.len(),
                    self.total_pages()
                ),
            });
        }
        let table = self.tables.entry(session).or_default();
        for _ in 0..needed {
            let page = self.free.pop().expect("free-list length checked above");
            self.owner[page as usize] = Some(session);
            table.push(page);
        }
        self.touch(session, key);
        Ok(needed)
    }

    /// Re-stamps every frame of `session` with `key` (called when the
    /// session steps or is re-admitted).
    pub fn touch(&mut self, session: u32, key: TouchKey) {
        if let Some(table) = self.tables.get(&session) {
            for &page in table {
                self.touched[page as usize] = key;
            }
        }
    }

    /// The stalest resident page among sessions accepted by `candidate`,
    /// as `(page, owner)` — ties cannot occur across sessions because the
    /// key embeds the unique admission sequence and id; within a session
    /// the **tail** page wins, so the returned page is always the one
    /// [`KvPageAllocator::evict_tail`] would free.
    pub fn lru_page(&self, candidate: impl Fn(u32) -> bool) -> Option<(PageId, u32)> {
        self.tables
            .iter()
            .filter(|(&s, table)| !table.is_empty() && candidate(s))
            .min_by_key(|(&s, table)| {
                (self.touched[table[0] as usize], s) // all pages share the key
            })
            .map(|(&s, table)| (*table.last().expect("filtered non-empty"), s))
    }

    /// Frees the tail page of `session`'s table, returning it (or `None`
    /// when the session holds no pages).
    pub fn evict_tail(&mut self, session: u32) -> Option<PageId> {
        let table = self.tables.get_mut(&session)?;
        let page = table.pop()?;
        if table.is_empty() {
            self.tables.remove(&session);
        }
        self.owner[page as usize] = None;
        self.free.push(page);
        Some(page)
    }

    /// Frees every page of `session` (on completion or full eviction),
    /// returning how many were released.
    pub fn release(&mut self, session: u32) -> usize {
        let Some(table) = self.tables.remove(&session) else { return 0 };
        let n = table.len();
        for page in table {
            self.owner[page as usize] = None;
            self.free.push(page);
        }
        n
    }

    /// Bytes of internal fragmentation if `session` holds `held_bytes` of
    /// KV data: the dead space in its partially filled tail page.
    pub fn frag_bytes(&self, session: u32, held_bytes: u64) -> u64 {
        (self.session_pages(session) as u64 * self.page_bytes).saturating_sub(held_bytes)
    }

    /// Total internal fragmentation of the pool given `held_total`, the
    /// KV bytes held across *every* page-owning session: pool occupancy
    /// minus held bytes, in O(1) from the frame counters. Equal to
    /// summing [`KvPageAllocator::frag_bytes`] over all owners whenever
    /// each owner's held bytes fit within its own frames — the serving
    /// scheduler's invariant — which is how the event-driven core reports
    /// fragmentation without a per-session scan.
    pub fn frag_total_bytes(&self, held_total: u64) -> u64 {
        (self.used_pages() as u64 * self.page_bytes).saturating_sub(held_total)
    }

    /// Conservation check for tests and debug assertions: every frame is
    /// either free or in exactly one page table, and the owner index
    /// agrees with the tables.
    pub fn conserves_pages(&self) -> bool {
        let tabled: usize = self.tables.values().map(Vec::len).sum();
        if tabled + self.free.len() != self.total_pages() {
            return false;
        }
        let mut seen = vec![false; self.total_pages()];
        for (&s, table) in &self.tables {
            for &page in table {
                let idx = page as usize;
                if seen[idx] || self.owner[idx] != Some(s) {
                    return false;
                }
                seen[idx] = true;
            }
        }
        self.free.iter().all(|&p| !seen[p as usize] && self.owner[p as usize].is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_construction_and_validation() {
        let pool = KvPageAllocator::new(8, 1024).unwrap();
        assert_eq!(pool.total_pages(), 8);
        assert_eq!(pool.free_pages(), 8);
        assert_eq!(pool.used_pages(), 0);
        assert_eq!(pool.page_bytes(), 1024);
        assert!(KvPageAllocator::new(0, 1024).is_err());
        assert!(KvPageAllocator::new(8, 0).is_err());
        assert!(KvPageAllocator::for_demand(0, 64).unwrap().total_pages() == 1);
        assert_eq!(KvPageAllocator::for_demand(9000, 4096).unwrap().total_pages(), 3);
        assert!(KvPageAllocator::for_demand(1, 0).is_err());
    }

    #[test]
    fn pages_for_arithmetic() {
        let pool = KvPageAllocator::new(8, 100).unwrap();
        assert_eq!(pool.pages_for(0), 0);
        assert_eq!(pool.pages_for(1), 1);
        assert_eq!(pool.pages_for(100), 1);
        assert_eq!(pool.pages_for(101), 2);
    }

    #[test]
    fn grow_touch_evict_cycle_conserves() {
        let mut pool = KvPageAllocator::new(4, 64).unwrap();
        assert_eq!(pool.grow(1, 2, (1, 1, 1)).unwrap(), 2);
        assert_eq!(pool.grow(2, 2, (1, 2, 2)).unwrap(), 2);
        assert!(pool.conserves_pages());
        assert_eq!(pool.free_pages(), 0);
        // Over-subscription fails and leaves the pool untouched.
        assert!(pool.grow(3, 1, (2, 3, 3)).is_err());
        assert!(pool.conserves_pages());
        // Growing to a target at or below the held count is a no-op.
        assert_eq!(pool.grow(1, 1, (3, 1, 1)).unwrap(), 0);
        assert_eq!(pool.session_pages(1), 2);
        // Peel one page and the freed frame is reusable.
        assert!(pool.evict_tail(1).is_some());
        assert_eq!(pool.session_pages(1), 1);
        assert_eq!(pool.grow(3, 1, (4, 3, 3)).unwrap(), 1);
        assert!(pool.conserves_pages());
    }

    #[test]
    fn lru_page_orders_by_key_and_peels_tails() {
        let mut pool = KvPageAllocator::new(8, 64).unwrap();
        pool.grow(1, 2, (5, 1, 1)).unwrap();
        pool.grow(2, 3, (3, 2, 2)).unwrap(); // stalest: tick 3
        pool.grow(3, 1, (9, 3, 3)).unwrap();
        let (page, owner) = pool.lru_page(|_| true).unwrap();
        assert_eq!(owner, 2);
        assert_eq!(Some(page), pool.tables.get(&2).unwrap().last().copied());
        // A touch rescues session 2; session 1 (tick 5) becomes the victim.
        pool.touch(2, (10, 2, 2));
        assert_eq!(pool.lru_page(|_| true).unwrap().1, 1);
        // The candidate filter excludes sessions (e.g. the step set):
        // without session 1, the stalest remaining page is session 3's
        // (tick 9, still ahead of session 2's tick 10).
        assert_eq!(pool.lru_page(|s| s != 1).unwrap().1, 3);
        assert!(pool.lru_page(|_| false).is_none());
    }

    #[test]
    fn release_returns_all_frames() {
        let mut pool = KvPageAllocator::new(6, 32).unwrap();
        pool.grow(4, 5, (1, 1, 4)).unwrap();
        assert_eq!(pool.release(4), 5);
        assert_eq!(pool.release(4), 0);
        assert_eq!(pool.free_pages(), 6);
        assert!(pool.conserves_pages());
        assert!(pool.lru_page(|_| true).is_none());
    }

    #[test]
    fn frag_accounts_partial_tail_pages() {
        let mut pool = KvPageAllocator::new(8, 100).unwrap();
        pool.grow(1, 3, (1, 1, 1)).unwrap();
        assert_eq!(pool.frag_bytes(1, 250), 50);
        assert_eq!(pool.frag_bytes(1, 300), 0);
        assert_eq!(pool.frag_bytes(2, 0), 0);
    }

    #[test]
    fn frag_total_matches_per_session_sum() {
        let mut pool = KvPageAllocator::new(8, 100).unwrap();
        pool.grow(1, 3, (1, 1, 1)).unwrap(); // holds 250 B → 50 B frag
        pool.grow(2, 2, (1, 2, 2)).unwrap(); // holds 130 B → 70 B frag
        let per_session = pool.frag_bytes(1, 250) + pool.frag_bytes(2, 130);
        assert_eq!(pool.frag_total_bytes(250 + 130), per_session);
        assert_eq!(pool.frag_total_bytes(500), 0);
    }
}
