//! Table-driven power-law sampling, bit-equal to the `powf` path.
//!
//! [`DetRng::power_law_prepared`] costs one `powf` per draw, and the
//! workload streams draw on every op — the self-profiler attributes
//! ~14% of hot-loop wall time to op generation, almost all of it
//! `powf`. This module precomputes, per `(n, skew)` pair, the exact
//! threshold table of the composed draw function
//!
//! ```text
//! r = next_u64() >> 11            (the 53-bit raw draw behind unit())
//! k = power_law_eval(n, a, inv, r * 2^-53)
//! ```
//!
//! `k` is monotone non-decreasing in `r`, so the function is fully
//! described by `thresholds[k]` = the smallest `r` that yields `k`.
//! A draw then becomes: one `next_u64`, one bucket-index shift, and a
//! short binary search — no floating point at all. The thresholds are
//! found by probing [`power_law_eval`] itself (the same `#[inline]`
//! scalar both paths share), which is what makes the table **bit-equal
//! by construction**: every raw draw maps to exactly the index the
//! reference path would have produced, so golden reports cannot move.
//!
//! Tables are deduplicated in a process-global cache keyed on
//! `(n, skew)` — the built-in benchmarks use a few dozen distinct
//! pairs, each table costing `8n` bytes (≤ 384 KiB at the largest
//! `n = 48000`). Domains above `MAX_TABLE_N` keep the reference
//! `powf` path, which also serves as the tests' oracle.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::rng::{power_law_eval, DetRng, PowerLaw};

/// Raw draws carry 53 bits, matching `DetRng::unit`.
const RAW_BITS: u32 = 53;
/// Largest raw draw value.
const MAX_R: u64 = (1u64 << RAW_BITS) - 1;
/// `unit()`'s exact scale factor; `r as f64 * UNIT_SCALE` reproduces
/// the reference `u` bit-for-bit for every 53-bit `r`.
const UNIT_SCALE: f64 = 1.0 / (1u64 << RAW_BITS) as f64;
/// The bucket index uses the top `BUCKET_BITS` of the raw draw to
/// bracket the binary search; 12 bits keeps the bucket array at
/// 4097 × 4 bytes while leaving searches ~3 probes deep even at the
/// largest benchmark domain.
const BUCKET_BITS: u32 = 12;
/// Shift that maps a raw draw to its bucket index.
const BUCKET_SHIFT: u32 = RAW_BITS - BUCKET_BITS;
/// Domains larger than this fall back to the reference path rather
/// than build a multi-megabyte table (no benchmark comes close).
const MAX_TABLE_N: u64 = 1 << 20;

/// Immutable table payload, shared via `Arc` through the global cache.
struct TableInner {
    /// Domain size.
    n: u64,
    /// Skew the table was built for (kept for `Debug` output).
    skew: f64,
    /// `thresholds[k]` = smallest raw draw yielding index `k`
    /// (`thresholds[0] == 0`; monotone non-decreasing; a value above
    /// [`MAX_R`] marks an index the reference path never produces).
    thresholds: Vec<u64>,
    /// `buckets[b]` = table answer at raw draw `b << BUCKET_SHIFT`,
    /// so a draw in bucket `b` lies in `[buckets[b], buckets[b + 1]]`.
    buckets: Vec<u32>,
}

impl TableInner {
    /// Builds the exact threshold table for `(n, skew)` by probing the
    /// shared reference evaluation. Cost is `O(n log n)` evaluations
    /// (an analytic first guess keeps the per-index search local), a
    /// few milliseconds at the largest benchmark domain.
    fn build(n: u64, skew: f64) -> Self {
        let (a, inv) = PowerLaw::constants(n, skew);
        let eval = |r: u64| power_law_eval(n, a, inv, r as f64 * UNIT_SCALE);
        let mut thresholds = Vec::with_capacity(n as usize);
        thresholds.push(0u64);
        let mut prev = 0u64;
        for k in 1..n {
            if prev > MAX_R {
                // Earlier index already unreachable; so is this one.
                thresholds.push(prev);
                continue;
            }
            // Analytic estimate of where the continuous inverse CDF
            // crosses k; the threshold sits within a few raw-draw
            // steps of it.
            let u_est = if inv == 0.0 {
                ((k + 1) as f64).ln() / a.ln()
            } else {
                (((k + 1) as f64).powf(1.0 / inv) - 1.0) / (a - 1.0)
            };
            let r_est =
                ((u_est.clamp(0.0, 1.0) * (1u64 << RAW_BITS) as f64) as u64).clamp(prev, MAX_R);
            // Bracket the crossing: grow outward exponentially until
            // eval(lo) < k <= eval(hi) (or we hit the domain edges).
            let mut lo = r_est.saturating_sub(64).max(prev);
            let mut hi = r_est.saturating_add(64).min(MAX_R);
            let mut step = 128u64;
            while lo > prev && eval(lo) >= k {
                lo = lo.saturating_sub(step).max(prev);
                step = step.saturating_mul(2);
            }
            step = 128;
            while hi < MAX_R && eval(hi) < k {
                hi = hi.saturating_add(step).min(MAX_R);
                step = step.saturating_mul(2);
            }
            if eval(hi) < k {
                // The reference path never reaches k: mark unreachable.
                prev = MAX_R + 1;
                thresholds.push(prev);
                continue;
            }
            let mut r = if eval(lo) >= k {
                lo
            } else {
                // Invariant: eval(lo) < k <= eval(hi); find min r with
                // eval(r) >= k.
                let (mut l, mut h) = (lo, hi);
                while l + 1 < h {
                    let m = l + (h - l) / 2;
                    if eval(m) >= k {
                        h = m;
                    } else {
                        l = m;
                    }
                }
                h
            };
            // Nudge down over any local float non-monotonicity so the
            // threshold is the true minimum (the bit-equality tests
            // scan these boundaries exhaustively).
            while r > prev && eval(r - 1) >= k {
                r -= 1;
            }
            prev = r.max(prev);
            thresholds.push(prev);
        }
        // Bucket index: answer at each bucket boundary, bracketing the
        // per-draw binary search.
        let mut buckets = vec![0u32; (1usize << BUCKET_BITS) + 1];
        let mut k = 0u64;
        for (b, slot) in buckets.iter_mut().enumerate() {
            let r = (b as u64) << BUCKET_SHIFT;
            while k + 1 < n && thresholds[(k + 1) as usize] <= r {
                k += 1;
            }
            *slot = k as u32;
        }
        Self {
            n,
            skew,
            thresholds,
            buckets,
        }
    }

    /// Maps a 53-bit raw draw to its power-law index.
    #[inline]
    fn lookup(&self, r: u64) -> u64 {
        let b = (r >> BUCKET_SHIFT) as usize;
        let mut lo = u64::from(self.buckets[b]);
        let mut hi = u64::from(self.buckets[b + 1]);
        // Largest k in [lo, hi] with thresholds[k] <= r.
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.thresholds[mid as usize] <= r {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// The process-global table store: one entry per distinct
/// `(n, skew bits)` parameter pair.
type TableCache = Mutex<HashMap<(u64, u64), Arc<TableInner>>>;

/// Process-global table cache keyed on `(n, skew bits)`. Streams for
/// all cores share one table per distinct parameter pair.
fn cache() -> &'static TableCache {
    static CACHE: OnceLock<TableCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A precomputed power-law sampler, bit-equal to
/// [`DetRng::power_law_prepared`] for the same `(n, skew)`.
///
/// Cheap to clone (the payload is `Arc`-shared through a global cache,
/// so repeated construction for the same parameters reuses one table).
#[derive(Clone)]
pub struct PowerLawTable {
    inner: Arc<TableInner>,
}

impl PowerLawTable {
    /// Fetches (or builds) the shared table for `(n, skew)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `skew <= 0`, or `n` exceeds the table-size
    /// guard ([`PowerLawSampler::new`] falls back to the reference
    /// path instead of panicking).
    pub fn shared(n: u64, skew: f64) -> Self {
        assert!(n > 0, "power_law over empty domain");
        assert!(
            n <= MAX_TABLE_N,
            "domain too large for a threshold table ({n} > {MAX_TABLE_N})"
        );
        let key = (n, skew.to_bits());
        if let Some(t) = cache().lock().unwrap().get(&key) {
            return Self {
                inner: Arc::clone(t),
            };
        }
        // Build outside the lock (construction takes milliseconds);
        // a racing duplicate build is benign — first insert wins.
        let built = Arc::new(TableInner::build(n, skew));
        let mut map = cache().lock().unwrap();
        let entry = map.entry(key).or_insert(built);
        Self {
            inner: Arc::clone(entry),
        }
    }

    /// Domain size.
    #[inline]
    pub fn n(&self) -> u64 {
        self.inner.n
    }

    /// Maps a 53-bit raw draw (`next_u64() >> 11`, the exact value
    /// behind `DetRng::unit`) to its power-law index.
    #[inline]
    pub fn lookup(&self, r: u64) -> u64 {
        self.inner.lookup(r)
    }

    /// Draws an index in `[0, n)` from `rng`, consuming exactly one
    /// `next_u64` — the same keystream consumption as the reference
    /// path, so surrounding draws stay aligned.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        self.inner.lookup(rng.next_u64() >> 11)
    }
}

impl std::fmt::Debug for PowerLawTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerLawTable")
            .field("n", &self.inner.n)
            .field("skew", &self.inner.skew)
            .finish_non_exhaustive()
    }
}

/// The sampler a workload stream actually holds: the table when the
/// domain is table-sized, the reference `powf` path otherwise. Both arms produce bit-identical draw sequences.
#[derive(Clone, Debug)]
pub enum PowerLawSampler {
    /// Table-driven hot path.
    Table(PowerLawTable),
    /// Per-draw `powf` reference path.
    Reference(PowerLaw),
}

impl PowerLawSampler {
    /// Builds the preferred sampler for `(n, skew)`: table-driven
    /// unless the domain exceeds `MAX_TABLE_N`.
    pub fn new(n: u64, skew: f64) -> Self {
        if n <= MAX_TABLE_N {
            Self::Table(PowerLawTable::shared(n, skew))
        } else {
            Self::Reference(PowerLaw::new(n, skew))
        }
    }

    /// Builds the reference-path sampler unconditionally (the oracle
    /// tests compare the table arm against).
    pub fn reference(n: u64, skew: f64) -> Self {
        Self::Reference(PowerLaw::new(n, skew))
    }

    /// Domain size.
    #[inline]
    pub fn n(&self) -> u64 {
        match self {
            Self::Table(t) => t.n(),
            Self::Reference(p) => p.n,
        }
    }

    /// Draws an index in `[0, n)` from `rng`; one `next_u64` either way.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match self {
            Self::Table(t) => t.sample(rng),
            Self::Reference(p) => p.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid of domain sizes and skews, including the degenerate and
    /// Zipf corners. The exact shapes the built-in benchmarks use are
    /// checked in `mmm-workload` (`stream::tests`).
    const DOMAINS: [u64; 4] = [1, 2, 128, 48_000];
    const SKEWS: [f64; 7] = [0.5, 1.0, 1.05, 1.3, 1.5, 1.9, 2.2];

    fn eval_r(n: u64, skew: f64, r: u64) -> u64 {
        let (a, inv) = PowerLaw::constants(n, skew);
        power_law_eval(n, a, inv, r as f64 * UNIT_SCALE)
    }

    #[test]
    fn table_matches_reference_on_random_streams() {
        for &n in &DOMAINS {
            for &skew in &SKEWS {
                let table = PowerLawTable::shared(n, skew);
                let reference = PowerLaw::new(n, skew);
                let mut ra = DetRng::new(0xC0FFEE, n ^ skew.to_bits());
                let mut rb = ra.clone();
                for i in 0..4_000 {
                    let t = table.sample(&mut ra);
                    let r = reference.sample(&mut rb);
                    assert_eq!(t, r, "draw {i} diverged for n={n} skew={skew}");
                }
            }
        }
    }

    #[test]
    fn table_matches_reference_at_every_threshold_boundary() {
        // The only places the two paths could disagree are the raw
        // draws adjacent to each threshold; scan all of them.
        for &(n, skew) in &[(128u64, 1.3f64), (128, 1.0), (1_000, 0.5), (48_000, 2.2)] {
            let table = PowerLawTable::shared(n, skew);
            for k in 0..n {
                let thr = table.inner.thresholds[k as usize];
                if thr > MAX_R {
                    continue;
                }
                for r in [thr.saturating_sub(1), thr, (thr + 1).min(MAX_R)] {
                    assert_eq!(
                        table.lookup(r),
                        eval_r(n, skew, r),
                        "boundary r={r} (k={k}) diverged for n={n} skew={skew}"
                    );
                }
            }
        }
    }

    #[test]
    fn thresholds_are_monotone_and_anchored() {
        for &(n, skew) in &[(48_000u64, 1.9f64), (1_000, 1.0)] {
            let table = PowerLawTable::shared(n, skew);
            let thr = &table.inner.thresholds;
            assert_eq!(thr.len() as u64, n);
            assert_eq!(thr[0], 0);
            assert!(thr.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn shared_tables_are_deduplicated() {
        let a = PowerLawTable::shared(4_096, 1.35);
        let b = PowerLawTable::shared(4_096, 1.35);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        let c = PowerLawTable::shared(4_096, 1.36);
        assert!(!Arc::ptr_eq(&a.inner, &c.inner));
    }

    #[test]
    fn sampler_arms_agree() {
        let hot = PowerLawSampler::new(3_000, 1.8);
        let reference = PowerLawSampler::reference(3_000, 1.8);
        assert_eq!(hot.n(), 3_000);
        let mut ra = DetRng::new(7, 9);
        let mut rb = ra.clone();
        for _ in 0..2_000 {
            assert_eq!(hot.sample(&mut ra), reference.sample(&mut rb));
        }
    }

    #[test]
    fn degenerate_domain_always_zero() {
        let table = PowerLawTable::shared(1, 1.0);
        let mut rng = DetRng::new(11, 0);
        for _ in 0..64 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }
}
