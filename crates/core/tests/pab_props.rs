//! Property tests for the PAT/PAB protection pair.
//!
//! Whatever interleaving of PAT updates, store checks, and TLB demaps
//! occurs, the PAB's verdict must always equal the PAT's current
//! content — the PAB is a pure (demap-coherent) cache of the table.
//!
//! Deterministic property testing: interleavings are generated from a
//! fixed-seed [`DetRng`], so failures reproduce exactly (the build is
//! offline; no proptest).

use mmm_core::{check_store, Pab, PabVerdict, Pat};
use mmm_mem::MemorySystem;
use mmm_types::{CoreId, DetRng, PageAddr, SystemConfig};
use std::cell::RefCell;

#[derive(Clone, Debug)]
enum PatOp {
    /// Mark a page reliable-only / open, then demap it (the system
    /// software contract: PAT updates are followed by a TLB demap,
    /// which the PAB mirrors).
    SetAndDemap { page: u16, reliable: bool },
    /// A performance-mode store permission check.
    Check { page: u16 },
}

fn random_op(rng: &mut DetRng) -> PatOp {
    let page = rng.below(2048) as u16;
    if rng.chance(0.5) {
        PatOp::SetAndDemap {
            page,
            reliable: rng.chance(0.5),
        }
    } else {
        PatOp::Check { page }
    }
}

#[test]
fn pab_verdicts_always_match_the_pat() {
    let mut gen = DetRng::new(0x9AB, 0);
    for case in 0..64 {
        let n_ops = gen.range(1, 300);
        let ops: Vec<PatOp> = (0..n_ops).map(|_| random_op(&mut gen)).collect();
        let cfg = SystemConfig::default();
        let mut mem = MemorySystem::new(&cfg);
        let mut pat = Pat::new();
        let pab = RefCell::new(Pab::new(cfg.pab));
        let mut now = 0u64;
        for op in &ops {
            now += 11;
            match *op {
                PatOp::SetAndDemap { page, reliable } => {
                    pat.set_reliable(PageAddr(page as u64), reliable);
                    pab.borrow_mut()
                        .on_demap(pat.backing_line(PageAddr(page as u64)));
                }
                PatOp::Check { page } => {
                    let line = PageAddr(page as u64).first_line();
                    let (ready, verdict) = check_store(&pab, CoreId(0), line, &pat, &mut mem, now);
                    assert!(ready >= now, "case {case}");
                    let expected = if pat.is_reliable(PageAddr(page as u64)) {
                        PabVerdict::Violation
                    } else {
                        PabVerdict::Allowed
                    };
                    assert_eq!(verdict, expected, "case {case}");
                }
            }
            assert!(
                pab.borrow().occupancy() <= cfg.pab.entries as usize,
                "case {case}"
            );
        }
        // Accounting: hits + misses == lookups.
        let pb = pab.borrow();
        let s = pb.stats();
        assert_eq!(s.hits + s.misses, s.lookups, "case {case}");
    }
}

#[test]
fn pat_range_updates_are_exact() {
    let mut gen = DetRng::new(0x9AC, 0);
    for case in 0..64 {
        let start = gen.below(50_000);
        let len = gen.range(1, 600);
        let mut pat = Pat::new();
        pat.set_range_reliable(start..start + len, true);
        assert!(
            !pat.is_reliable(PageAddr(start.wrapping_sub(1))),
            "case {case}"
        );
        assert!(pat.is_reliable(PageAddr(start)), "case {case}");
        assert!(pat.is_reliable(PageAddr(start + len - 1)), "case {case}");
        assert!(!pat.is_reliable(PageAddr(start + len)), "case {case}");
        // Clearing undoes it exactly.
        pat.set_range_reliable(start..start + len, false);
        for p in [start, start + len / 2, start + len - 1] {
            assert!(!pat.is_reliable(PageAddr(p)), "case {case}");
        }
    }
}

/// A page count that lands on, just before, or just after a word or
/// group boundary more often than a uniform draw would.
fn edge_biased(rng: &mut DetRng, uniform_below: u64) -> u64 {
    const EDGES: [u64; 9] = [0, 1, 63, 64, 65, 511, 512, 513, 1024];
    if rng.chance(0.5) {
        EDGES[rng.below(EDGES.len() as u64) as usize]
    } else {
        rng.below(uniform_below)
    }
}

#[test]
fn pat_range_marking_equals_per_page_marking() {
    let mut gen = DetRng::new(0x9AD, 0);
    let mut ranged = Pat::new();
    let mut paged = Pat::new();
    for case in 0..400 {
        let start = gen.below(64) * 512 + edge_biased(&mut gen, 512);
        let len = edge_biased(&mut gen, 2000);
        let pages = start..start + len;
        // Mostly set then clear; some ranges stay set, so later ranges
        // overlap marks of both polarities, and some are only cleared,
        // which still materializes their groups.
        let passes: &[bool] = match gen.below(8) {
            0 | 1 => &[true],
            2 => &[false],
            _ => &[true, false],
        };
        for &reliable in passes {
            ranged.set_range_reliable(pages.clone(), reliable);
            for p in pages.clone() {
                paged.set_reliable(PageAddr(p), reliable);
            }
            for p in start.saturating_sub(70)..start + len + 70 {
                assert_eq!(
                    ranged.is_reliable(PageAddr(p)),
                    paged.is_reliable(PageAddr(p)),
                    "case {case}: page {p} after marking {pages:?} {reliable}"
                );
            }
            assert_eq!(
                ranged.resident_bytes(),
                paged.resident_bytes(),
                "case {case}: groups materialized by {pages:?}"
            );
        }
    }
}
