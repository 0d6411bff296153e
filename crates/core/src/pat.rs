//! The Protection Assistance Table (paper §3.4.1).
//!
//! "Similar to an inverse page table: for each physical page in the
//! system, a '1' entry indicates that page can only be accessed by
//! applications executing in reliable mode, and a '0' entry indicates
//! that page can potentially be accessed by any software." One bit per
//! 8 KB page; the table lives in cacheable physical memory and is
//! maintained by system software (the VMM updates it alongside its
//! page tables).
//!
//! The PAT content is the architectural source of truth; the per-core
//! [`crate::pab::Pab`] caches 64-byte lines of it.

use mmm_types::fastmap::FastMap;
use mmm_types::LineAddr;
use mmm_types::PageAddr;
use mmm_workload::AddressLayout;

/// Pages covered by one 64-byte PAT line (64 B × 8 bits).
pub const PAGES_PER_PAT_LINE: u64 = 512;

/// The in-memory protection bitmap.
///
/// Sparse: groups of 512 pages materialize on first write, matching
/// how system software would lazily allocate PAT backing pages.
#[derive(Clone, Debug, Default)]
pub struct Pat {
    /// Page-group index (`page / 512`) → 512-bit bitmap (8 × u64).
    /// The keys are the simulator's own page numbers, so the map uses
    /// the multiply-xor hasher rather than SipHash.
    groups: FastMap<u64, [u64; 8]>,
    layout: AddressLayout,
}

impl Pat {
    /// Creates an empty PAT: no page is marked reliable-only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a single page.
    pub fn set_reliable(&mut self, page: PageAddr, reliable: bool) {
        let group = self.groups.entry(page.0 / PAGES_PER_PAT_LINE).or_default();
        let bit = page.0 % PAGES_PER_PAT_LINE;
        let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
        if reliable {
            group[word] |= mask;
        } else {
            group[word] &= !mask;
        }
    }

    /// Marks a contiguous page range (system software marking a VM's
    /// whole allocation). Same result as calling [`Self::set_reliable`]
    /// on every page, group materialization included, but one map
    /// entry per 512-page group and one mask per 64-page word.
    pub fn set_range_reliable(&mut self, pages: std::ops::Range<u64>, reliable: bool) {
        let mut page = pages.start;
        while page < pages.end {
            let group = self.groups.entry(page / PAGES_PER_PAT_LINE).or_default();
            // The rest of the range inside this group, one word at a
            // time: `n` pages (1..=64) from bit `bit` on.
            loop {
                let bit = page % PAGES_PER_PAT_LINE;
                let word_end = (page | 63).saturating_add(1).min(pages.end);
                let n = word_end - page;
                let mask = (u64::MAX >> (64 - n)) << (bit % 64);
                let word = &mut group[(bit / 64) as usize];
                if reliable {
                    *word |= mask;
                } else {
                    *word &= !mask;
                }
                page = word_end;
                if page == pages.end || page.is_multiple_of(PAGES_PER_PAT_LINE) {
                    break;
                }
            }
        }
    }

    /// Whether `page` may only be written by reliable-mode software.
    pub fn is_reliable(&self, page: PageAddr) -> bool {
        self.groups
            .get(&(page.0 / PAGES_PER_PAT_LINE))
            .map(|g| {
                let bit = page.0 % PAGES_PER_PAT_LINE;
                g[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
            })
            .unwrap_or(false)
    }

    /// Physical line of the PAT backing store holding `page`'s bit —
    /// the address a PAB miss fetches through the cache hierarchy.
    pub fn backing_line(&self, page: PageAddr) -> LineAddr {
        self.layout.pat_line_for(page)
    }

    /// Bytes of PAT backing store materialized so far (diagnostics;
    /// the paper sizes the full table at 16 MB per TB of physical
    /// memory).
    pub fn resident_bytes(&self) -> u64 {
        self.groups.len() as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unprotected() {
        let pat = Pat::new();
        assert!(!pat.is_reliable(PageAddr(0)));
        assert!(!pat.is_reliable(PageAddr(123_456)));
    }

    #[test]
    fn set_and_clear_single_pages() {
        let mut pat = Pat::new();
        pat.set_reliable(PageAddr(1000), true);
        assert!(pat.is_reliable(PageAddr(1000)));
        assert!(!pat.is_reliable(PageAddr(999)));
        assert!(!pat.is_reliable(PageAddr(1001)));
        pat.set_reliable(PageAddr(1000), false);
        assert!(!pat.is_reliable(PageAddr(1000)));
    }

    #[test]
    fn range_marking() {
        let mut pat = Pat::new();
        pat.set_range_reliable(5000..5100, true);
        assert!(pat.is_reliable(PageAddr(5000)));
        assert!(pat.is_reliable(PageAddr(5099)));
        assert!(!pat.is_reliable(PageAddr(4999)));
        assert!(!pat.is_reliable(PageAddr(5100)));
    }

    #[test]
    fn bits_across_word_and_group_boundaries() {
        let mut pat = Pat::new();
        for p in [63u64, 64, 511, 512, 513] {
            pat.set_reliable(PageAddr(p), true);
            assert!(pat.is_reliable(PageAddr(p)), "page {p}");
        }
        // Neighbours unaffected.
        assert!(!pat.is_reliable(PageAddr(62)));
        assert!(!pat.is_reliable(PageAddr(65)));
        assert!(!pat.is_reliable(PageAddr(510)));
        assert!(!pat.is_reliable(PageAddr(514)));
    }

    #[test]
    fn backing_lines_group_512_pages() {
        let pat = Pat::new();
        assert_eq!(
            pat.backing_line(PageAddr(0)),
            pat.backing_line(PageAddr(511))
        );
        assert_ne!(
            pat.backing_line(PageAddr(511)),
            pat.backing_line(PageAddr(512))
        );
    }

    #[test]
    fn resident_bytes_grow_lazily() {
        let mut pat = Pat::new();
        assert_eq!(pat.resident_bytes(), 0);
        pat.set_reliable(PageAddr(0), true);
        pat.set_reliable(PageAddr(511), true);
        assert_eq!(pat.resident_bytes(), 64);
        pat.set_reliable(PageAddr(512), true);
        assert_eq!(pat.resident_bytes(), 128);
    }
}
