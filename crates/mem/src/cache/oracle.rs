//! Replacement oracle for [`SetAssocCache`].
//!
//! [`Reference`] is the cache as it was before ways shrank to 24 bytes:
//! an `Option` per way and an unbounded `u64` recency stamp, so it
//! never renumbers. Seeded random operation mixes drive it and the
//! production cache side by side; every result, victim, resident-line
//! order and occupancy must agree, including across the `u32` stamp
//! wrap.

use super::*;
use mmm_types::DetRng;

#[derive(Clone, Debug)]
struct Slot {
    line: Option<CacheLine>,
    lru: u64,
}

/// The stamp-based true-LRU cache with `Option` ways.
struct Reference {
    sets: Vec<Slot>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
}

impl Reference {
    fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets() as usize;
        let ways = geom.associativity as usize;
        Self {
            sets: vec![Slot { line: None, lru: 0 }; sets * ways],
            ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
        }
    }

    fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
        let set = (addr.0 & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    fn lookup(&mut self, addr: LineAddr) -> Option<&mut CacheLine> {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(addr);
        let slot = self.sets[range]
            .iter_mut()
            .find(|s| s.line.as_ref().is_some_and(|l| l.addr == addr))?;
        slot.lru = stamp;
        slot.line.as_mut()
    }

    fn peek(&self, addr: LineAddr) -> Option<&CacheLine> {
        let range = self.set_range(addr);
        self.sets[range]
            .iter()
            .filter_map(|s| s.line.as_ref())
            .find(|l| l.addr == addr)
    }

    fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(line.addr);
        let set = &mut self.sets[range];
        if let Some(slot) = set
            .iter_mut()
            .find(|s| s.line.as_ref().is_some_and(|l| l.addr == line.addr))
        {
            slot.line = Some(line);
            slot.lru = stamp;
            return None;
        }
        if let Some(slot) = set.iter_mut().find(|s| s.line.is_none()) {
            slot.line = Some(line);
            slot.lru = stamp;
            return None;
        }
        let victim_slot = set
            .iter_mut()
            .min_by_key(|s| s.lru)
            .expect("nonzero associativity");
        let victim = victim_slot.line.replace(line);
        victim_slot.lru = stamp;
        victim
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let range = self.set_range(addr);
        self.sets[range]
            .iter_mut()
            .find(|s| s.line.as_ref().is_some_and(|l| l.addr == addr))
            .and_then(|s| s.line.take())
    }

    fn iter_lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.sets.iter().filter_map(|s| s.line.as_ref())
    }

    fn drain_matching(&mut self, mut pred: impl FnMut(&CacheLine) -> bool) -> Vec<CacheLine> {
        let mut out = Vec::new();
        for slot in &mut self.sets {
            if let Some(line) = slot.line {
                if pred(&line) {
                    out.push(line);
                    slot.line = None;
                }
            }
        }
        out
    }

    fn discard_matching(&mut self, pred: impl FnMut(&CacheLine) -> bool) -> usize {
        self.drain_matching(pred).len()
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().filter(|s| s.line.is_some()).count()
    }

    fn clear(&mut self) {
        for slot in &mut self.sets {
            slot.line = None;
        }
    }
}

/// Eight sets of `ways` ways.
fn geometry(ways: u32) -> CacheGeometry {
    CacheGeometry::new(8 * 64 * ways as u64, ways).expect("valid geometry")
}

fn random_line(rng: &mut DetRng, addrs: u64) -> CacheLine {
    let state = [Mosi::Modified, Mosi::Owned, Mosi::Shared][rng.below(3) as usize];
    CacheLine::new(
        LineAddr(rng.below(addrs)),
        state,
        rng.below(1 << 20),
        rng.chance(0.7),
    )
}

/// Applies `ops` random operations to both caches, checking after each
/// one that they agree. `jump` may move the production cache's stamp
/// counter before an operation (the reference's stays unbounded).
fn drive(
    cache: &mut SetAssocCache,
    reference: &mut Reference,
    rng: &mut DetRng,
    ops: usize,
    mut jump: impl FnMut(&mut SetAssocCache, &mut DetRng),
) {
    // Three addresses per way: sets fill, conflict and evict.
    let addrs = 3 * cache.slot_count() as u64;
    for op in 0..ops {
        jump(cache, rng);
        let what = rng.below(100);
        match what {
            0..=39 => {
                let addr = LineAddr(rng.below(addrs));
                let (got, want) = (cache.lookup(addr), reference.lookup(addr));
                assert_eq!(got.as_deref(), want.as_deref(), "op {op}: lookup {addr:?}");
                // Callers update hit lines in place.
                if let (Some(got), Some(want)) = (got, want) {
                    if rng.chance(0.3) {
                        got.version += 1;
                        got.state = Mosi::Modified;
                        want.version += 1;
                        want.state = Mosi::Modified;
                    }
                }
            }
            40..=54 => {
                let addr = LineAddr(rng.below(addrs));
                assert_eq!(cache.peek(addr), reference.peek(addr), "op {op}: peek");
            }
            55..=84 => {
                let line = random_line(rng, addrs);
                assert_eq!(
                    cache.insert(line),
                    reference.insert(line),
                    "op {op}: victim of {line:?}"
                );
            }
            85..=94 => {
                let addr = LineAddr(rng.below(addrs));
                assert_eq!(
                    cache.invalidate(addr),
                    reference.invalidate(addr),
                    "op {op}"
                );
            }
            95..=97 => {
                let modulus = rng.range(2, 6);
                let pred = |l: &CacheLine| !l.coherent || l.addr.0.is_multiple_of(modulus);
                if rng.chance(0.5) {
                    assert_eq!(
                        cache.drain_matching(pred),
                        reference.drain_matching(pred),
                        "op {op}: drain"
                    );
                } else {
                    assert_eq!(
                        cache.discard_matching(pred),
                        reference.discard_matching(pred),
                        "op {op}: discard"
                    );
                }
            }
            _ => {
                if rng.chance(0.2) {
                    cache.clear();
                    reference.clear();
                }
            }
        }
        let (got, want): (Vec<_>, Vec<_>) = (
            cache.iter_lines().copied().collect(),
            reference.iter_lines().copied().collect(),
        );
        assert_eq!(got, want, "op {op}: resident lines");
        assert_eq!(cache.occupancy(), reference.occupancy(), "op {op}");
    }
}

#[test]
fn replacement_matches_the_stamp_reference() {
    for ways in [1, 2, 4, 16] {
        let mut rng = DetRng::new(0xCAC4E, ways as u64);
        let mut cache = SetAssocCache::new(geometry(ways));
        let mut reference = Reference::new(geometry(ways));
        drive(&mut cache, &mut reference, &mut rng, 20_000, |_, _| {});
    }
}

#[test]
fn replacement_matches_the_reference_across_stamp_wraps() {
    for ways in [1, 2, 4, 16] {
        let mut rng = DetRng::new(0xCAC4F, ways as u64);
        let mut cache = SetAssocCache::new(geometry(ways));
        let mut reference = Reference::new(geometry(ways));
        // Fill the sets on ordinary stamps first.
        drive(&mut cache, &mut reference, &mut rng, 2_000, |_, _| {});
        // Then keep pushing the counter to within a few operations of
        // the wrap, so the mix crosses it many times and renumbers
        // with full, partly empty and just-cleared sets.
        let mut wraps = 0;
        let mut last = cache.stamp;
        drive(&mut cache, &mut reference, &mut rng, 20_000, |c, rng| {
            if c.stamp < last {
                wraps += 1;
            }
            // Only ever forward: a stamp moved back would reorder.
            let near_wrap = u32::MAX - rng.below(20) as u32;
            if rng.chance(0.02) && c.stamp < near_wrap {
                c.set_stamp(near_wrap);
            }
            last = c.stamp;
        });
        assert!(wraps > 100, "{ways}-way: only {wraps} wraps crossed");
    }
}
