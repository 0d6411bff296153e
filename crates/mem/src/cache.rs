//! Generic set-associative cache with true-LRU replacement.
//!
//! Used for the L1s, the private L2s, and the shared L3 (and, in the
//! `mmm-core` crate, for the Protection Assistance Buffer). One
//! structure serves all levels; level-specific behaviour (write-through,
//! exclusivity, coherence) lives in [`crate::system::MemorySystem`].
//!
//! The default machine's caches hold 270 336 ways (16 × (L1-I + L1-D +
//! L2) plus the L3), and every one is written when the machine is
//! built, so a way is kept small: one 24-byte [`CacheLine`] whose
//! padding holds the way's `u32` recency stamp, with a reserved
//! address marking an empty way instead of an `Option` tag. That is
//! 6.2 MiB per machine, 2 MiB less than a 32-byte way.

use mmm_types::config::CacheGeometry;
use mmm_types::LineAddr;

use crate::request::VersionToken;

/// MOSI coherence state of a cached line.
///
/// The L1s piggyback on their L2's state (write-through, inclusive);
/// lines resident in an L1 are recorded there simply as present. The
/// L3 uses only `S` (clean) and `M`/`O` (dirty) flavours of presence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mosi {
    /// Modified: dirty, sole copy among L2s.
    Modified,
    /// Owned: dirty, other shared copies may exist; this cache
    /// responds to requests.
    Owned,
    /// Shared: clean copy, possibly one of several.
    Shared,
}

impl Mosi {
    /// Whether this state holds dirty data.
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, Mosi::Modified | Mosi::Owned)
    }

    /// Whether this state confers write permission without an upgrade.
    #[inline]
    pub fn can_write(self) -> bool {
        self == Mosi::Modified
    }
}

/// One resident cache line.
///
/// Built with [`CacheLine::new`]: the line also carries the recency
/// stamp of the cache way holding it, which only [`SetAssocCache`]
/// reads or writes. Equality compares the four public fields.
#[derive(Clone, Copy, Debug)]
pub struct CacheLine {
    /// The line's physical address (line-granular).
    pub addr: LineAddr,
    /// Coherence state.
    pub state: Mosi,
    /// Version token of the data held (see [`crate::request`]).
    pub version: VersionToken,
    /// Whether the copy is coherent with the system. Mute cores fill
    /// lines incoherently during Reunion execution; during mode
    /// switches they also hold coherent lines (VCPU state), which is
    /// why this is a per-line bit — exactly the bit the paper adds to
    /// each line's state field (§3.4.3).
    pub coherent: bool,
    /// True-LRU stamp of the way holding the line (see
    /// [`SetAssocCache`]); meaningless outside the cache.
    lru: u32,
}

impl CacheLine {
    /// A line with the given address, state, data version and
    /// coherence bit.
    #[inline]
    pub const fn new(addr: LineAddr, state: Mosi, version: VersionToken, coherent: bool) -> Self {
        Self {
            addr,
            state,
            version,
            coherent,
            lru: 0,
        }
    }
}

impl PartialEq for CacheLine {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
            && self.state == other.state
            && self.version == other.version
            && self.coherent == other.coherent
    }
}

impl Eq for CacheLine {}

/// Address of an empty way. Real line addresses derive from physical
/// addresses far below 2^63, so no resident line carries it.
const EMPTY: LineAddr = LineAddr(u64::MAX);

/// An empty way.
const EMPTY_WAY: CacheLine = CacheLine::new(EMPTY, Mosi::Shared, 0, true);

/// A set-associative cache with true-LRU replacement.
///
/// Each way is one 24-byte [`CacheLine`]; an empty way holds the
/// address `u64::MAX`. Every `lookup` and `insert` takes the next value
/// of a cache-wide `u32` stamp and writes it into the way it touches;
/// a full set evicts its lowest stamp. Only the order of stamps within
/// one set decides a victim, so when the counter would wrap,
/// `renumber` replaces each set's stamps by their rank
/// in that set — the same order, hence the same victims, as an
/// unbounded counter — and the count restarts above the largest rank.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    lines: Vec<CacheLine>,
    ways: usize,
    set_mask: u64,
    stamp: u32,
    /// Per-set way of the last lookup hit — a pure probe accelerator.
    /// A set holds at most one copy of an address, so checking the
    /// hinted way first returns the same way the linear scan would;
    /// hit/miss results and LRU stamps are identical either way.
    way_hint: Vec<u8>,
}

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(geom: CacheGeometry) -> Self {
        geom.validate().expect("invalid cache geometry");
        let sets = geom.sets() as usize;
        let ways = geom.associativity as usize;
        assert!(ways <= 256, "way hints are byte-sized");
        Self {
            lines: vec![EMPTY_WAY; sets * ways],
            ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
            way_hint: vec![0; sets],
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.lines.len() / self.ways
    }

    /// Total slots (sets × ways).
    pub fn slot_count(&self) -> usize {
        self.lines.len()
    }

    #[inline]
    fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
        let set = (addr.0 & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// The next recency stamp, renumbering every set first when the
    /// counter would wrap.
    #[inline]
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.renumber();
        }
        self.stamp += 1;
        self.stamp
    }

    /// Replaces each resident line's stamp by its rank (1 = least
    /// recent) among the resident lines of its set, and restarts the
    /// counter at the largest possible rank. Stamps within a set are
    /// distinct, so ranks keep their exact order. (Empty ways keep
    /// theirs: a way's stamp is rewritten whenever it is filled.)
    #[cold]
    fn renumber(&mut self) {
        for set in self.lines.chunks_mut(self.ways) {
            let old: Vec<Option<u32>> = set
                .iter()
                .map(|l| (l.addr != EMPTY).then_some(l.lru))
                .collect();
            for (line, &mine) in set.iter_mut().zip(&old) {
                if let Some(mine) = mine {
                    line.lru = 1 + old.iter().flatten().filter(|&&s| s < mine).count() as u32;
                }
            }
        }
        self.stamp = self.ways as u32;
    }

    /// Sets the recency counter, so tests can drive it across the wrap.
    #[cfg(test)]
    fn set_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
    }

    /// Looks up `addr`; on a hit, refreshes LRU and returns a mutable
    /// reference to the line. Callers update the line's fields in
    /// place; assigning a whole new line through the reference would
    /// also reset its recency.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&mut CacheLine> {
        let stamp = self.next_stamp();
        let set = (addr.0 & self.set_mask) as usize;
        let base = set * self.ways;
        // Probe the way that hit here last — under power-law reuse
        // most lookups land on it, skipping the associative scan.
        let hinted = base + self.way_hint[set] as usize;
        let way = if self.lines[hinted].addr == addr {
            hinted
        } else {
            let hit = self.lines[base..base + self.ways]
                .iter()
                .position(|l| l.addr == addr)?;
            self.way_hint[set] = hit as u8;
            base + hit
        };
        let line = &mut self.lines[way];
        line.lru = stamp;
        Some(line)
    }

    /// Looks up `addr` without touching LRU state (for probes that
    /// must not perturb replacement, e.g. mute best-effort reads of
    /// other caches and directory consistency checks).
    pub fn peek(&self, addr: LineAddr) -> Option<&CacheLine> {
        let range = self.set_range(addr);
        self.lines[range].iter().find(|l| l.addr == addr)
    }

    /// Inserts a line, evicting the LRU victim of its set if full.
    /// Returns the victim. If the address is already resident, the
    /// existing line is overwritten in place and `None` is returned.
    pub fn insert(&mut self, mut line: CacheLine) -> Option<CacheLine> {
        debug_assert_ne!(line.addr, EMPTY, "the empty-way address is reserved");
        line.lru = self.next_stamp();
        let range = self.set_range(line.addr);
        let set = &mut self.lines[range];
        // Overwrite an existing copy of the same address, else fill an
        // empty way.
        if let Some(way) = set
            .iter()
            .position(|l| l.addr == line.addr)
            .or_else(|| set.iter().position(|l| l.addr == EMPTY))
        {
            set[way] = line;
            return None;
        }
        // Evict LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| l.lru)
            .expect("nonzero associativity");
        Some(std::mem::replace(victim, line))
    }

    /// Removes `addr` if present, returning the line.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let range = self.set_range(addr);
        self.lines[range]
            .iter_mut()
            .find(|l| l.addr == addr)
            .map(|l| std::mem::replace(l, EMPTY_WAY))
    }

    /// Iterates over all resident lines.
    pub fn iter_lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.lines.iter().filter(|l| l.addr != EMPTY)
    }

    /// Removes every line matching `pred`, returning the removed lines.
    pub fn drain_matching(&mut self, pred: impl FnMut(&CacheLine) -> bool) -> Vec<CacheLine> {
        let mut out = Vec::new();
        self.drain_matching_into(pred, &mut out);
        out
    }

    /// Removes every line matching `pred`, appending the removed lines
    /// to `out` — the allocation-free form of [`Self::drain_matching`]
    /// for hot paths that reuse a scratch buffer.
    pub fn drain_matching_into(
        &mut self,
        mut pred: impl FnMut(&CacheLine) -> bool,
        out: &mut Vec<CacheLine>,
    ) {
        for way in &mut self.lines {
            if way.addr != EMPTY && pred(way) {
                out.push(std::mem::replace(way, EMPTY_WAY));
            }
        }
    }

    /// Removes every line matching `pred` and returns only how many
    /// were removed (no allocation; for callers that don't need the
    /// line contents).
    pub fn discard_matching(&mut self, mut pred: impl FnMut(&CacheLine) -> bool) -> usize {
        let mut removed = 0;
        for way in &mut self.lines {
            if way.addr != EMPTY && pred(way) {
                removed += 1;
                *way = EMPTY_WAY;
            }
        }
        removed
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.iter_lines().count()
    }

    /// Empties the cache completely.
    pub fn clear(&mut self) {
        self.lines.fill(EMPTY_WAY);
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::config::CacheGeometry;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways.
        SetAssocCache::new(CacheGeometry::new(8 * 64, 2).unwrap())
    }

    fn line(addr: u64) -> CacheLine {
        CacheLine::new(LineAddr(addr), Mosi::Shared, 0, true)
    }

    #[test]
    fn a_way_is_24_bytes() {
        assert_eq!(std::mem::size_of::<CacheLine>(), 24);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.insert(line(0x10)).is_none());
        assert!(c.lookup(LineAddr(0x10)).is_some());
        assert!(c.lookup(LineAddr(0x11)).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set index = addr & 3. Use addrs 0,4,8 -> all set 0.
        c.insert(line(0));
        c.insert(line(4));
        c.lookup(LineAddr(0)); // 0 becomes MRU; 4 is LRU
        let victim = c.insert(line(8)).expect("full set must evict");
        assert_eq!(victim.addr, LineAddr(4));
        assert!(c.peek(LineAddr(0)).is_some());
        assert!(c.peek(LineAddr(8)).is_some());
    }

    #[test]
    fn insert_same_addr_overwrites_without_eviction() {
        let mut c = tiny();
        c.insert(line(0));
        c.insert(line(4));
        let mut updated = line(0);
        updated.state = Mosi::Modified;
        assert!(c.insert(updated).is_none());
        assert_eq!(c.peek(LineAddr(0)).unwrap().state, Mosi::Modified);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn peek_does_not_perturb_lru() {
        let mut c = tiny();
        c.insert(line(0));
        c.insert(line(4));
        c.peek(LineAddr(0)); // must NOT refresh 0
                             // lookup(4) makes 4 MRU; 0 remains LRU regardless of the peek.
        c.lookup(LineAddr(4));
        let victim = c.insert(line(8)).unwrap();
        assert_eq!(victim.addr, LineAddr(0));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(line(7));
        assert!(c.invalidate(LineAddr(7)).is_some());
        assert!(c.lookup(LineAddr(7)).is_none());
        assert!(c.invalidate(LineAddr(7)).is_none());
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for a in 0..100 {
            c.insert(line(a));
            assert!(c.occupancy() <= c.slot_count());
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn drain_matching_filters() {
        let mut c = tiny();
        for a in 0..8 {
            let mut l = line(a);
            l.coherent = a % 2 == 0;
            c.insert(l);
        }
        let drained = c.drain_matching(|l| !l.coherent);
        assert_eq!(drained.len(), 4);
        assert!(c.iter_lines().all(|l| l.coherent));
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        // Addresses 0..4 map to distinct sets; filling them must not evict.
        for a in 0..4 {
            assert!(c.insert(line(a)).is_none());
        }
        for a in 0..4 {
            assert!(c.peek(LineAddr(a)).is_some());
        }
    }

    #[test]
    fn clear_empties() {
        let mut c = tiny();
        c.insert(line(1));
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn mosi_predicates() {
        assert!(Mosi::Modified.is_dirty());
        assert!(Mosi::Owned.is_dirty());
        assert!(!Mosi::Shared.is_dirty());
        assert!(Mosi::Modified.can_write());
        assert!(!Mosi::Owned.can_write());
        assert!(!Mosi::Shared.can_write());
    }
}
