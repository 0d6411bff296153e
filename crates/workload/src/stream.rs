//! Per-VCPU micro-op stream generation.
//!
//! An [`OpStream`] turns a [`WorkloadProfile`] into an endless dynamic
//! instruction stream for one VCPU: instruction classes drawn from the
//! phase mix, data addresses drawn from power-law-reused footprints in
//! the VCPU's [`AddressLayout`] regions, instruction-fetch addresses
//! walked sequentially with power-law branch targets, and user/OS
//! phases alternating with geometric lengths.
//!
//! Streams are deterministic: the same `(seed, vm, vcpu)` triple
//! always produces the same op sequence, independent of any other
//! stream — which is what makes multi-configuration comparisons (DMR
//! vs MMM) run the *same work* in every configuration.

use mmm_types::sampler::PowerLawSampler;
use mmm_types::{DetRng, PhysAddr, VcpuId, VmId};

use crate::layout::AddressLayout;
use crate::op::{MicroOp, OpClass, Privilege};

use crate::profile::{PhaseProfile, WorkloadProfile};

/// Flat spread used for stores into shared regions (appends/logs
/// rather than the read-hot head; see [`PhaseProfile::store_share_scale`]).
const STORE_SPREAD_SKEW: f64 = 1.05;

/// The 53-bit integer behind [`DetRng::unit`], which returns exactly
/// `raw_unit · 2^-53`.
#[inline]
fn raw_unit(rng: &mut DetRng) -> u64 {
    rng.next_u64() >> 11
}

/// The bound `t` with `k < t ⇔ k · 2^-53 < x` for every 53-bit `k`:
/// `ceil(x · 2^53)`, exact because scaling by a power of two is exact
/// in `f64`. A NaN maps to 0, as `unit() < NaN` never holds.
fn unit_bound(x: f64) -> u64 {
    (x * (1u64 << 53) as f64).ceil() as u64
}

/// A Bernoulli trial compiled for the per-op path: the same outcome
/// and the same keystream consumption as [`DetRng::chance`], with an
/// integer compare in place of the float conversion and multiply.
#[derive(Clone, Copy, Debug)]
enum Chance {
    /// `p <= 0`: false, no draw.
    Never,
    /// `p >= 1`: true, no draw.
    Always,
    /// One draw, true when its [`raw_unit`] is below the bound.
    Below(u64),
}

impl Chance {
    fn new(p: f64) -> Self {
        if p <= 0.0 {
            Chance::Never
        } else if p >= 1.0 {
            Chance::Always
        } else {
            Chance::Below(unit_bound(p))
        }
    }

    #[inline]
    fn draw(self, rng: &mut DetRng) -> bool {
        match self {
            Chance::Never => false,
            Chance::Always => true,
            Chance::Below(t) => raw_unit(rng) < t,
        }
    }
}

/// A shared region (OS data or shared heap) as one access kind sees
/// it. Each sampler is table-driven (built once per distinct
/// `(lines, skew)` pair via the process-global cache in
/// `mmm_types::sampler`) and bit-equal to the per-draw `powf`
/// reference path.
#[derive(Clone, Debug)]
struct Region {
    sampler: PowerLawSampler,
    /// Lines in the region (the sampler's domain).
    n: u64,
    /// This VCPU's read-affinity rotation, pre-reduced mod `n`.
    offset: u64,
}

impl Region {
    fn new(n: u64, skew: f64, vcpu: VcpuId) -> Option<Self> {
        (n > 0).then(|| Region {
            sampler: PowerLawSampler::new(n, skew),
            n,
            offset: (vcpu.index() as u64).wrapping_mul(n / 24 + 1) % n,
        })
    }
}

/// Where one access kind (loads or stores) lands once it misses the
/// hot and warm sets.
#[derive(Clone, Debug)]
struct Spread {
    /// A [`raw_unit`] below this picks the OS-data region.
    os_below: u64,
    /// A [`raw_unit`] below this (and not below `os_below`) picks the
    /// shared heap.
    shared_below: u64,
    /// `None` for a zero-line region, which is never picked.
    os: Option<Region>,
    shared: Option<Region>,
}

/// One privilege phase's [`PhaseProfile`] compiled into the draws the
/// per-op path makes: probabilities as [`Chance`]s, cumulative class
/// mixes and region shares as [`raw_unit`] bounds (from the same
/// left-to-right `f64` sums the profile defines), and every sampler
/// and offset that depends only on the phase and the VCPU.
#[derive(Clone, Debug)]
struct PhasePlan {
    si: Chance,
    /// Cumulative bounds of the class draw: load, store, branch, long
    /// ALU; anything above is a plain ALU op.
    class_below: [u64; 4],
    mispredict: Chance,
    jump: Chance,
    hot: Chance,
    /// `p_warm / (1 - p_hot)`, or `Never` without a warm set.
    warm: Chance,
    true_share: Chance,
    hot_lines: u64,
    warm_lines: u64,
    load: Spread,
    store: Spread,
    hot_set: PowerLawSampler,
    private: PowerLawSampler,
    code: PowerLawSampler,
    /// First code line of the phase's window: OS code sits
    /// immediately above user code.
    code_base: u64,
    /// Code window size in bytes.
    window_bytes: u64,
}

/// The `(lines, skew)` domain of each sampler a phase draws from:
/// hot set, private heap, OS data, shared heap, OS-data stores,
/// shared-heap stores, code. The four region domains may be empty.
fn sampler_shapes(p: &PhaseProfile) -> [(u64, f64); 7] {
    [
        (p.hot_lines, p.skew),
        (p.private_lines, p.skew),
        (p.os_lines, p.skew),
        (p.shared_lines, p.skew),
        (p.os_lines, STORE_SPREAD_SKEW),
        (p.shared_lines, STORE_SPREAD_SKEW),
        (p.code_lines, p.code_skew),
    ]
}

impl PhasePlan {
    fn new(p: &PhaseProfile, vcpu: VcpuId, code_base: u64) -> Self {
        let [hot, private, os, shared, os_store, shared_store, code] = sampler_shapes(p);
        let spread = |p_os: f64, p_shared: f64, os: (u64, f64), shared: (u64, f64)| Spread {
            os_below: unit_bound(p_os),
            shared_below: unit_bound(p_os + p_shared),
            os: Region::new(os.0, os.1, vcpu),
            shared: Region::new(shared.0, shared.1, vcpu),
        };
        let load = p.load_frac;
        let store = load + p.store_frac;
        let branch = store + p.branch_frac;
        let long_alu = branch + p.long_alu_frac;
        PhasePlan {
            si: Chance::new(p.si_rate),
            class_below: [load, store, branch, long_alu].map(unit_bound),
            mispredict: Chance::new(p.mispredict_rate),
            jump: Chance::new(p.jump_rate),
            hot: Chance::new(p.p_hot),
            warm: if p.warm_lines > 0 {
                Chance::new(p.p_warm / (1.0 - p.p_hot))
            } else {
                Chance::Never
            },
            true_share: Chance::new(p.p_true_share),
            hot_lines: p.hot_lines,
            warm_lines: p.warm_lines,
            load: spread(p.p_os_data, p.p_shared, os, shared),
            // Shared data is read-mostly: stores reach the shared
            // regions at a scaled-down rate, and when they do they
            // spread flatly over the footprint (appends, logs) instead
            // of hammering the read-hot head.
            store: spread(
                p.p_os_data * p.store_share_scale,
                p.p_shared * p.store_share_scale,
                os_store,
                shared_store,
            ),
            hot_set: PowerLawSampler::new(hot.0, hot.1),
            private: PowerLawSampler::new(private.0, private.1),
            code: PowerLawSampler::new(code.0, code.1),
            code_base,
            window_bytes: p.code_lines * 64,
        }
    }

    /// Picks a data address. A `p_hot` fraction of accesses lands in
    /// the small private hot set (stack/top-of-heap — the
    /// short-reuse-distance traffic behind real L1 hit rates); the
    /// rest goes to the warm set, the OS region, the shared heap, or
    /// the full private footprint, each with power-law reuse.
    #[inline]
    fn data_address(&self, rng: &mut DetRng, vm: VmId, vcpu: VcpuId, is_store: bool) -> PhysAddr {
        let layout = AddressLayout;
        let line = if self.hot.draw(rng) {
            layout.private_line(vm, vcpu, self.hot_set.sample(rng))
        } else if self.warm.draw(rng) {
            // Warm set: uniform reuse over a region sized between the
            // L2 and an L3 share, immediately above the hot set.
            layout.private_line(vm, vcpu, self.hot_lines + rng.below(self.warm_lines))
        } else {
            let spread = if is_store { &self.store } else { &self.load };
            let r = raw_unit(rng);
            if let Some(os) = spread.os.as_ref().filter(|_| r < spread.os_below) {
                layout.os_line(vm, self.region_index(os, rng, is_store))
            } else if let Some(shared) = spread.shared.as_ref().filter(|_| r < spread.shared_below)
            {
                layout.shared_line(vm, self.region_index(shared, rng, is_store))
            } else {
                layout.private_line(vm, vcpu, self.private.sample(rng))
            }
        };
        PhysAddr(line.base().0 + rng.below(8) * 8)
    }

    /// Draws a shared-region index and applies CPU affinity: reads
    /// mostly target a per-VCPU-rotated window of the region (per-CPU
    /// slabs, per-connection buffers); a `p_true_share` fraction — and
    /// all stores, which are drawn flat — use the global frame.
    #[inline]
    fn region_index(&self, region: &Region, rng: &mut DetRng, is_store: bool) -> u64 {
        let idx = region.sampler.sample(rng);
        if is_store || self.true_share.draw(rng) {
            return idx;
        }
        // `idx < n` and `offset < n`, so the wrap is one subtract.
        let rotated = idx + region.offset;
        if rotated >= region.n {
            rotated - region.n
        } else {
            rotated
        }
    }

    /// Computes the fetch address and advances the sequential cursor.
    #[inline]
    fn fetch_address(&self, vm: VmId, fetch_cursor: &mut u64) -> PhysAddr {
        let window_bytes = self.window_bytes;
        // The cursor stays below the window except across a privilege
        // switch (the two phases have different window sizes), so the
        // common case needs no `%` — u64 division is the single most
        // expensive ALU op on this per-op path.
        let cursor = if *fetch_cursor < window_bytes {
            *fetch_cursor
        } else {
            *fetch_cursor % window_bytes
        };
        let line_idx = self.code_base + cursor / 64;
        let addr = PhysAddr(AddressLayout.code_line(vm, line_idx).base().0 + cursor % 64);
        // `cursor < window_bytes` and both are multiples of 4, so the
        // wrap is a single conditional subtract.
        let next = cursor + 4;
        *fetch_cursor = if next >= window_bytes {
            next - window_bytes
        } else {
            next
        };
        addr
    }
}

/// Execution latency (cycles) of a long ALU op once issued.
const LONG_ALU_LATENCY: u8 = 6;
/// Execution latency of a serializing instruction itself.
const SERIALIZING_LATENCY: u8 = 4;

/// Endless generator of [`MicroOp`]s for one VCPU.
#[derive(Clone, Debug)]
pub struct OpStream {
    profile: WorkloadProfile,
    vm: VmId,
    vcpu: VcpuId,
    rng: DetRng,
    privilege: Privilege,
    /// Instructions remaining in the current phase.
    remaining: u64,
    /// Fetch byte cursor within the current privilege's code window.
    fetch_cursor: u64,
    /// Total ops generated (diagnostics).
    generated: u64,
    /// The compiled draws of both privilege phases, indexed by
    /// [`Privilege`] (`[user, os]`).
    plans: [PhasePlan; 2],
}

impl OpStream {
    /// Creates a stream for `vcpu` of `vm`, seeded deterministically.
    ///
    /// The initial phase is drawn from the steady-state instruction
    /// mix (user with probability `mean_user / (mean_user + mean_os)`),
    /// so a gang of VCPUs created together does not start
    /// phase-synchronized. Geometric phase lengths are memoryless, so
    /// a fresh draw is exactly the residual of an in-progress phase.
    pub fn new(profile: WorkloadProfile, vm: VmId, vcpu: VcpuId, seed: u64) -> Self {
        let mut rng = DetRng::new(
            seed,
            0x5747 ^ ((vm.index() as u64) << 32) ^ ((vcpu.index() as u64) << 16),
        );
        let p_user = profile.mean_user_insts as f64
            / (profile.mean_user_insts + profile.mean_os_insts) as f64;
        let (privilege, remaining) = if rng.chance(p_user) {
            (
                Privilege::User,
                rng.geometric(1.0 / profile.mean_user_insts as f64),
            )
        } else {
            (
                Privilege::Os,
                rng.geometric(1.0 / profile.mean_os_insts as f64),
            )
        };
        let plans = [
            PhasePlan::new(&profile.user, vcpu, 0),
            PhasePlan::new(&profile.os, vcpu, profile.user.code_lines),
        ];
        Self {
            profile,
            vm,
            vcpu,
            rng,
            privilege,
            remaining,
            fetch_cursor: 0,
            generated: 0,
            plans,
        }
    }

    /// The VM this stream belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The VCPU this stream belongs to.
    pub fn vcpu(&self) -> VcpuId {
        self.vcpu
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Current privilege level (the level of the *next* op).
    pub fn privilege(&self) -> Privilege {
        self.privilege
    }

    /// Total ops generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Produces `n` consecutive ops through `sink`; the op sequence is
    /// identical to `n` calls of [`OpStream::next_op`].
    pub fn next_ops(&mut self, n: u64, mut sink: impl FnMut(MicroOp)) {
        for _ in 0..n {
            sink(self.next_op());
        }
    }

    /// Produces the next micro-op.
    #[inline]
    pub fn next_op(&mut self) -> MicroOp {
        let mut enters_os = false;
        let mut exits_os = false;
        if self.remaining == 0 {
            match self.privilege {
                Privilege::User => {
                    self.privilege = Privilege::Os;
                    enters_os = true;
                    self.remaining = self.rng.geometric(1.0 / self.profile.mean_os_insts as f64);
                    // Kernel entry lands on the trap-handler hot path.
                    self.fetch_cursor = 0;
                }
                Privilege::Os => {
                    self.privilege = Privilege::User;
                    exits_os = true;
                    self.remaining = self
                        .rng
                        .geometric(1.0 / self.profile.mean_user_insts as f64);
                }
            }
        }
        self.remaining -= 1;
        self.generated += 1;

        let privilege = self.privilege;
        let plan = &self.plans[privilege as usize];
        let rng = &mut self.rng;

        // Phase boundaries (trap entry / return-from-trap) are
        // architecturally serializing, as are the phase's own SIs.
        let class = if enters_os || exits_os || plan.si.draw(rng) {
            OpClass::Serializing
        } else {
            let r = raw_unit(rng);
            let [load, store, branch, long_alu] = plan.class_below;
            if r < load {
                OpClass::Load
            } else if r < store {
                OpClass::Store
            } else if r < branch {
                OpClass::Branch
            } else if r < long_alu {
                OpClass::LongAlu
            } else {
                OpClass::Alu
            }
        };

        let data_addr = match class {
            OpClass::Load => Some(plan.data_address(rng, self.vm, self.vcpu, false)),
            OpClass::Store => Some(plan.data_address(rng, self.vm, self.vcpu, true)),
            _ => None,
        };

        let fetch_addr = plan.fetch_address(self.vm, &mut self.fetch_cursor);

        let mispredicted = class == OpClass::Branch && plan.mispredict.draw(rng);
        if class == OpClass::Branch && plan.jump.draw(rng) {
            // Jump to a power-law-popular code line (hot loops
            // dominate branch targets).
            self.fetch_cursor = plan.code.sample(rng) * 64 + rng.below(16) * 4;
        }

        let exec_latency = match class {
            OpClass::LongAlu => LONG_ALU_LATENCY,
            OpClass::Serializing => SERIALIZING_LATENCY,
            _ => 1,
        };

        MicroOp {
            class,
            privilege,
            data_addr,
            fetch_addr,
            mispredicted,
            exec_latency,
            enters_os,
            exits_os,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use mmm_types::ids::PAGE_BYTES;

    fn stream(b: Benchmark) -> OpStream {
        OpStream::new(b.profile(), VmId(0), VcpuId(1), 42)
    }

    /// Every `(n, skew)` domain a built-in benchmark's streams sample
    /// from gets the table-driven sampler, and that table draws exactly
    /// what the reference `powf` path draws.
    #[test]
    fn benchmark_sampler_tables_match_the_reference() {
        let mut benches = Benchmark::all().to_vec();
        benches.push(Benchmark::SpecLike);
        benches.push(Benchmark::Synthetic { user_kilo_insts: 1 });
        let mut shapes: Vec<(u64, f64)> = benches
            .iter()
            .map(|b| b.profile())
            .flat_map(|p| [p.user, p.os])
            .flat_map(|phase| sampler_shapes(&phase))
            .filter(|&(n, _)| n > 0)
            .collect();
        shapes.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        shapes.dedup();
        assert!(shapes.len() > 10, "only {} shapes", shapes.len());
        for (n, skew) in shapes {
            let table = PowerLawSampler::new(n, skew);
            assert!(
                matches!(table, PowerLawSampler::Table(_)),
                "n={n} skew={skew} must be table-driven"
            );
            let reference = PowerLawSampler::reference(n, skew);
            let mut ra = DetRng::new(0x5EED, n ^ skew.to_bits());
            let mut rb = ra.clone();
            for i in 0..4_000 {
                assert_eq!(
                    table.sample(&mut ra),
                    reference.sample(&mut rb),
                    "draw {i} diverged for n={n} skew={skew}"
                );
            }
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = stream(Benchmark::Apache);
        let mut b = stream(Benchmark::Apache);
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_vcpus_get_different_streams() {
        let mut a = OpStream::new(Benchmark::Oltp.profile(), VmId(0), VcpuId(0), 42);
        let mut b = OpStream::new(Benchmark::Oltp.profile(), VmId(0), VcpuId(1), 42);
        let same = (0..1000)
            .filter(|_| {
                let (x, y) = (a.next_op(), b.next_op());
                x.class == y.class && x.data_addr == y.data_addr
            })
            .count();
        assert!(same < 900, "streams too correlated: {same}");
    }

    #[test]
    fn mix_approximates_profile() {
        let mut s = stream(Benchmark::Oltp);
        let n = 200_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut user_ops = 0;
        for _ in 0..n {
            let op = s.next_op();
            if op.privilege == Privilege::User {
                user_ops += 1;
                match op.class {
                    OpClass::Load => loads += 1,
                    OpClass::Store => stores += 1,
                    _ => {}
                }
            }
        }
        let p = Benchmark::Oltp.profile();
        let lf = loads as f64 / user_ops as f64;
        let sf = stores as f64 / user_ops as f64;
        assert!((lf - p.user.load_frac).abs() < 0.02, "load frac {lf}");
        assert!((sf - p.user.store_frac).abs() < 0.02, "store frac {sf}");
    }

    #[test]
    fn phase_lengths_match_profile_means() {
        // Use a scaled-down profile so thousands of phases fit in a
        // fast test; the code path is identical for the real means.
        let mut p = Benchmark::Apache.profile();
        p.mean_user_insts = 800;
        p.mean_os_insts = 400;
        let mut s = OpStream::new(p.clone(), VmId(0), VcpuId(0), 42);
        let mut user_lens = Vec::new();
        let mut os_lens = Vec::new();
        let mut current = 0u64;
        for _ in 0..3_000_000 {
            let op = s.next_op();
            if op.enters_os {
                user_lens.push(current);
                current = 0;
            } else if op.exits_os {
                os_lens.push(current);
                current = 0;
            }
            current += 1;
        }
        assert!(user_lens.len() > 1000, "need many phases for a mean");
        let mu = user_lens.iter().sum::<u64>() as f64 / user_lens.len() as f64;
        let mo = os_lens.iter().sum::<u64>() as f64 / os_lens.len() as f64;
        assert!(
            (mu / p.mean_user_insts as f64 - 1.0).abs() < 0.10,
            "user phase mean {mu} vs {}",
            p.mean_user_insts
        );
        assert!(
            (mo / p.mean_os_insts as f64 - 1.0).abs() < 0.10,
            "os phase mean {mo} vs {}",
            p.mean_os_insts
        );
    }

    #[test]
    fn os_entry_and_exit_are_serializing_and_alternate() {
        let mut s = stream(Benchmark::Zeus);
        // The stream may start mid-OS-phase (randomized initial phase).
        let mut expecting_entry = s.privilege() == Privilege::User;
        let mut transitions = 0;
        for _ in 0..2_000_000 {
            let op = s.next_op();
            if op.enters_os {
                assert!(expecting_entry, "two OS entries without an exit");
                assert_eq!(op.class, OpClass::Serializing);
                assert_eq!(op.privilege, Privilege::Os);
                expecting_entry = false;
                transitions += 1;
            }
            if op.exits_os {
                assert!(!expecting_entry, "exit without entry");
                assert_eq!(op.class, OpClass::Serializing);
                assert_eq!(op.privilege, Privilege::User);
                expecting_entry = true;
                transitions += 1;
            }
        }
        assert!(transitions > 10, "Zeus must enter the OS frequently");
    }

    #[test]
    fn all_data_addresses_stay_inside_the_vm() {
        let layout = AddressLayout::new();
        let mut s = OpStream::new(Benchmark::Pgbench.profile(), VmId(3), VcpuId(2), 7);
        for _ in 0..100_000 {
            let op = s.next_op();
            if let Some(a) = op.data_addr {
                assert_eq!(layout.vm_of(a), Some(VmId(3)), "addr {a} escaped VM");
            }
            assert_eq!(layout.vm_of(op.fetch_addr), Some(VmId(3)));
        }
    }

    #[test]
    fn user_and_os_code_footprints_are_disjoint() {
        let mut s = stream(Benchmark::Oltp);
        let p = Benchmark::Oltp.profile();
        let layout = AddressLayout::new();
        let user_limit = layout.code_line(VmId(0), p.user.code_lines).base().0;
        for _ in 0..500_000 {
            let op = s.next_op();
            match op.privilege {
                Privilege::User => assert!(op.fetch_addr.0 < user_limit),
                Privilege::Os => assert!(op.fetch_addr.0 >= user_limit),
            }
        }
    }

    #[test]
    fn private_addresses_differ_between_vcpus() {
        let mut a = OpStream::new(Benchmark::Pmake.profile(), VmId(0), VcpuId(0), 9);
        let mut b = OpStream::new(Benchmark::Pmake.profile(), VmId(0), VcpuId(1), 9);
        // Private heaps start 256 MB into the VM span; pages there
        // must be strictly disjoint between VCPUs.
        let private_base = (256u64 << 20) / PAGE_BYTES;
        let collect = |s: &mut OpStream| {
            let mut pages = std::collections::HashSet::new();
            for _ in 0..50_000 {
                if let Some(addr) = s.next_op().data_addr {
                    if addr.page().0 >= private_base {
                        pages.insert(addr.page());
                    }
                }
            }
            pages
        };
        let pa = collect(&mut a);
        let pb = collect(&mut b);
        assert!(!pa.is_empty() && !pb.is_empty());
        assert_eq!(
            pa.intersection(&pb).count(),
            0,
            "private heaps must be disjoint between VCPUs"
        );
    }

    #[test]
    fn spec_like_is_almost_all_user() {
        let mut s = OpStream::new(Benchmark::SpecLike.profile(), VmId(0), VcpuId(0), 1);
        let os_ops = (0..1_000_000)
            .filter(|_| s.next_op().privilege == Privilege::Os)
            .count();
        assert!(os_ops < 30_000, "spec-like spent {os_ops} ops in OS");
    }
}
