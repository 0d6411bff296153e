//! The mode-transition state machine (paper §3.4.3).
//!
//! Each core contains a small hardware state machine that performs the
//! steps of entering and leaving DMR mode. State is staged through a
//! reserved *scratchpad* region of physical memory: every VCPU owns
//! two copies there — copy 0 written by the vocal (or a solo core),
//! copy 1 the mute's redundant copy used to *verify* the vocal's
//! privileged state when re-entering DMR, preventing faults that
//! occurred during performance mode from being laundered into
//! reliable execution.
//!
//! All staging traffic is issued as ordinary coherent loads and stores
//! (even from a mute core — the paper's per-line coherent bit exists
//! exactly for this), so transition cost responds to real cache
//! state: warm scratchpad lines make switches cheap, cross-core
//! transfers surface as 3-hop C2C latencies, and the MMM-TP mute-cache
//! flush walks the L2 at one line per cycle.

use mmm_mem::request::store_token;
use mmm_mem::MemorySystem;
use mmm_types::config::{ReunionConfig, VirtConfig};
use mmm_types::stats::{Log2Histogram, RunningStat};
use mmm_types::{CoreId, Cycle, VcpuId};
use mmm_workload::AddressLayout;

/// Counters and distributions for mode transitions (Table 1).
///
/// Each transition kind keeps both a [`RunningStat`] (mean/CI for the
/// tables) and a [`Log2Histogram`] of the same cycle costs — the
/// histogram feeds the flight recorder, whose interval deltas need
/// mergeable buckets rather than running moments.
#[derive(Clone, Debug, Default)]
pub struct TransitionStats {
    /// Enter-DMR events and their cycle costs.
    pub enter: RunningStat,
    /// Leave-DMR events and their cycle costs.
    pub leave: RunningStat,
    /// DMR-to-DMR VCPU switches (gang boundaries without a mode
    /// change).
    pub dmr_switch: RunningStat,
    /// Performance-to-performance VCPU switches.
    pub perf_switch: RunningStat,
    /// Enter-DMR cycle costs as a histogram.
    pub enter_hist: Log2Histogram,
    /// Leave-DMR cycle costs as a histogram.
    pub leave_hist: Log2Histogram,
    /// DMR-to-DMR switch cycle costs as a histogram.
    pub dmr_switch_hist: Log2Histogram,
    /// Performance-switch cycle costs as a histogram.
    pub perf_switch_hist: Log2Histogram,
}

impl TransitionStats {
    /// Records one enter-DMR cost.
    fn push_enter(&mut self, cycles: Cycle) {
        self.enter.push(cycles as f64);
        self.enter_hist.record(cycles);
    }

    /// Records one leave-DMR cost.
    fn push_leave(&mut self, cycles: Cycle) {
        self.leave.push(cycles as f64);
        self.leave_hist.record(cycles);
    }

    /// Records one DMR-to-DMR switch cost.
    fn push_dmr_switch(&mut self, cycles: Cycle) {
        self.dmr_switch.push(cycles as f64);
        self.dmr_switch_hist.record(cycles);
    }

    /// Records one performance-switch cost.
    fn push_perf_switch(&mut self, cycles: Cycle) {
        self.perf_switch.push(cycles as f64);
        self.perf_switch_hist.record(cycles);
    }
}

/// The transition engine: computes transition completion times by
/// issuing the staging traffic against the real memory system.
#[derive(Debug)]
pub struct TransitionEngine {
    layout: AddressLayout,
    virt: VirtConfig,
    reunion: ReunionConfig,
    /// Monotonic token sequence for scratchpad stores (distinct from
    /// any program store).
    token_seq: u64,
    /// Accumulated statistics.
    pub stats: TransitionStats,
}

impl TransitionEngine {
    /// Creates the engine.
    pub fn new(virt: VirtConfig, reunion: ReunionConfig) -> Self {
        Self {
            layout: AddressLayout::new(),
            virt,
            reunion,
            token_seq: 1 << 60,
            stats: TransitionStats::default(),
        }
    }

    /// Stores one copy of `vcpu`'s architected state from `core` into
    /// the scratchpad; returns the completion cycle.
    pub fn save_state(
        &mut self,
        mem: &mut MemorySystem,
        core: CoreId,
        vcpu: VcpuId,
        copy: u8,
        start: Cycle,
    ) -> Cycle {
        let lines = self
            .layout
            .scratchpad_lines(vcpu, copy, self.virt.vcpu_state_bytes);
        let interval = self.virt.state_op_interval_cycles as Cycle;
        let mut done = start;
        for (i, line) in lines.into_iter().enumerate() {
            let issue = start + i as Cycle * interval;
            self.token_seq += 1;
            let token = store_token(vcpu, line, self.token_seq);
            let acq = mem.store_acquire(core, line, true, issue);
            let acc = mem.store_commit(core, line, token, true, acq.complete_at);
            done = done.max(acc.complete_at);
        }
        done
    }

    /// Loads one copy of `vcpu`'s state into `core`; returns the
    /// completion cycle. Line transfers are pipelined at the state
    /// machine's issue interval.
    pub fn load_state(
        &mut self,
        mem: &mut MemorySystem,
        core: CoreId,
        vcpu: VcpuId,
        copy: u8,
        start: Cycle,
    ) -> Cycle {
        let lines = self
            .layout
            .scratchpad_lines(vcpu, copy, self.virt.vcpu_state_bytes);
        let interval = self.virt.state_op_interval_cycles as Cycle;
        let mut done = start;
        for (i, line) in lines.into_iter().enumerate() {
            let issue = start + i as Cycle * interval;
            let acc = mem.load(core, line, true, issue);
            done = done.max(acc.complete_at);
        }
        done
    }

    /// Loads one copy of `vcpu`'s state *serially* — each line
    /// transfer starts only when the previous one completed. This is
    /// the mute's Enter-DMR verification walk: privileged registers
    /// are compared group by group against the redundant copy, so the
    /// walk cannot be pipelined (paper §3.4.3).
    pub fn load_state_serial(
        &mut self,
        mem: &mut MemorySystem,
        core: CoreId,
        vcpu: VcpuId,
        copy: u8,
        start: Cycle,
    ) -> Cycle {
        let lines = self
            .layout
            .scratchpad_lines(vcpu, copy, self.virt.vcpu_state_bytes);
        let mut t = start;
        for line in lines {
            t = mem.load(core, line, true, t).complete_at;
        }
        t
    }

    fn machine(&self) -> Cycle {
        self.virt.transition_machine_cycles as Cycle
    }

    fn sync(&self) -> Cycle {
        self.reunion.sync_latency as Cycle
    }

    fn verify(&self) -> Cycle {
        // The mute verifies the vocal's privileged registers against
        // its own redundant copy: one fingerprint round trip.
        2 * self.reunion.fingerprint_latency as Cycle
    }

    /// Enters DMR mode on a (vocal, mute) core pair (paper §3.4.3):
    ///
    /// 1. each core saves the state of the performance VCPU it was
    ///    running (`outgoing`; in MMM-TP the mute may have run an
    ///    independent VCPU),
    /// 2. the vocal loads the incoming reliable VCPU's state (its own
    ///    saved copy 0),
    /// 3. the mute loads its own redundant copy 1, then the vocal's
    ///    copy 0, and verifies the privileged registers against its
    ///    copy.
    ///
    /// Returns the cycle at which the pair may begin redundant
    /// execution.
    pub fn enter_dmr(
        &mut self,
        mem: &mut MemorySystem,
        vocal: CoreId,
        mute: CoreId,
        outgoing: &[(CoreId, VcpuId)],
        incoming: VcpuId,
        now: Cycle,
    ) -> Cycle {
        let t0 = now + self.machine();
        let mut saved = t0;
        for &(core, vcpu) in outgoing {
            // Saves on distinct cores overlap; the state machine joins
            // on the slowest.
            saved = saved.max(self.save_state(mem, core, vcpu, 0, t0));
        }
        let t1 = saved + self.sync();
        let vocal_done = self.load_state(mem, vocal, incoming, 0, t1);
        // The mute walks both copies serially (register group by
        // register group) but the two walks proceed in parallel — its
        // own redundant copy and the vocal's copy stream through
        // independent base registers — joining at the verification.
        let mute_own = self.load_state_serial(mem, mute, incoming, 1, t1);
        let mute_vocal_copy = self.load_state_serial(mem, mute, incoming, 0, t1);
        let done = vocal_done.max(mute_own.max(mute_vocal_copy) + self.verify());
        self.stats.push_enter(done - now);
        done
    }

    /// Leaves DMR mode on a pair (paper §3.4.3): synchronize, save the
    /// vocal's state (copy 0) and the mute's redundant copy (copy 1),
    /// flush the mute's cache of incoherent lines if requested
    /// (required in MMM-TP, where an independent VCPU will use the
    /// mute core coherently), and load the state of the incoming
    /// performance VCPU(s).
    #[allow(clippy::too_many_arguments)] // a hardware state-machine spec
    pub fn leave_dmr(
        &mut self,
        mem: &mut MemorySystem,
        vocal: CoreId,
        mute: CoreId,
        outgoing: VcpuId,
        incoming: &[(CoreId, VcpuId)],
        flush_mute: bool,
        now: Cycle,
    ) -> Cycle {
        let t0 = now + self.machine() + self.sync();
        // Each core's transition state machine runs its own chain:
        // save the outgoing copy, (on the mute) flush incoherent
        // lines, then restore the incoming VCPU register group by
        // register group. The chains proceed in parallel; the pair
        // rejoins when the slower finishes.
        let vocal_saved = self.save_state(mem, vocal, outgoing, 0, t0);
        let mute_saved = self.save_state(mem, mute, outgoing, 1, t0);
        let mute_ready = if flush_mute {
            mem.flush_mute(mute, mute_saved).complete_at
        } else {
            mute_saved
        };
        let mut done = vocal_saved.max(mute_ready);
        for &(core, vcpu) in incoming {
            // Restoring performance state is not a verification: the
            // state machine streams the lines pipelined.
            let start = if core == vocal {
                vocal_saved
            } else {
                mute_ready
            };
            done = done.max(self.load_state(mem, core, vcpu, 0, start));
        }
        self.stats.push_leave(done - now);
        done
    }

    /// Switches a DMR pair between two reliable VCPUs (gang boundary,
    /// no mode change): save both copies of the outgoing, load both
    /// copies of the incoming, verify.
    pub fn dmr_switch(
        &mut self,
        mem: &mut MemorySystem,
        vocal: CoreId,
        mute: CoreId,
        outgoing: Option<VcpuId>,
        incoming: VcpuId,
        now: Cycle,
    ) -> Cycle {
        let t0 = now + self.machine() + self.sync();
        let saved = match outgoing {
            Some(out) => {
                let v = self.save_state(mem, vocal, out, 0, t0);
                let m = self.save_state(mem, mute, out, 1, t0);
                v.max(m)
            }
            None => t0,
        };
        let v = self.load_state(mem, vocal, incoming, 0, saved);
        let m = self.load_state(mem, mute, incoming, 1, saved);
        let done = v.max(m) + self.verify();
        self.stats.push_dmr_switch(done - now);
        done
    }

    /// The restore half of a DMR installation (used by the
    /// overcommit scheduler, which charges eviction saves
    /// separately): the vocal streams the incoming VCPU's state while
    /// the mute walks and verifies both copies.
    pub fn restore_dmr(
        &mut self,
        mem: &mut MemorySystem,
        vocal: CoreId,
        mute: CoreId,
        incoming: VcpuId,
        start: Cycle,
    ) -> Cycle {
        let t0 = start + self.machine() + self.sync();
        let v = self.load_state(mem, vocal, incoming, 0, t0);
        let m_own = self.load_state_serial(mem, mute, incoming, 1, t0);
        let m_vocal = self.load_state_serial(mem, mute, incoming, 0, t0);
        let done = v.max(m_own.max(m_vocal) + self.verify());
        self.stats.push_dmr_switch(done - start);
        done
    }

    /// The restore half of a performance-mode installation.
    pub fn restore_solo(
        &mut self,
        mem: &mut MemorySystem,
        core: CoreId,
        incoming: VcpuId,
        start: Cycle,
    ) -> Cycle {
        let t0 = start + self.machine();
        let done = self.load_state(mem, core, incoming, 0, t0);
        self.stats.push_perf_switch(done - start);
        done
    }

    /// Switches a performance-mode core between two VCPUs.
    pub fn perf_switch(
        &mut self,
        mem: &mut MemorySystem,
        core: CoreId,
        outgoing: Option<VcpuId>,
        incoming: VcpuId,
        now: Cycle,
    ) -> Cycle {
        let t0 = now + self.machine();
        let saved = match outgoing {
            Some(out) => self.save_state(mem, core, out, 0, t0),
            None => t0,
        };
        let done = self.load_state(mem, core, incoming, 0, saved);
        self.stats.push_perf_switch(done - now);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::SystemConfig;

    fn engine() -> (TransitionEngine, MemorySystem) {
        let cfg = SystemConfig::default();
        (
            TransitionEngine::new(cfg.virt, cfg.reunion),
            MemorySystem::new(&cfg),
        )
    }

    const VOCAL: CoreId = CoreId(0);
    const MUTE: CoreId = CoreId(1);
    const V_REL: VcpuId = VcpuId(0);
    const V_PERF: VcpuId = VcpuId(8);

    #[test]
    fn save_then_load_is_cheaper_warm() {
        let (mut e, mut mem) = engine();
        let cold_save = e.save_state(&mut mem, VOCAL, V_REL, 0, 0);
        let warm_save = e.save_state(&mut mem, VOCAL, V_REL, 0, cold_save);
        assert!(warm_save - cold_save <= cold_save, "warm save not slower");
        let load_done = e.load_state(&mut mem, VOCAL, V_REL, 0, warm_save);
        // 36 lines at 8-cycle intervals plus an L1/L2 hit.
        assert!(load_done - warm_save >= 36 * 8 - 8);
        assert!(load_done - warm_save < 1_000, "warm load is fast");
    }

    #[test]
    fn enter_dmr_cost_is_in_the_papers_range() {
        let (mut e, mut mem) = engine();
        // Warm up: a previous leave wrote the reliable VCPU's state.
        e.save_state(&mut mem, VOCAL, V_REL, 0, 0);
        e.save_state(&mut mem, MUTE, V_REL, 1, 0);
        let now = 100_000;
        let done = e.enter_dmr(&mut mem, VOCAL, MUTE, &[(VOCAL, V_PERF)], V_REL, now);
        let cost = done - now;
        // Table 1: ~2.2–2.4k cycles. Accept a generous band here; the
        // bench harness checks the calibrated value.
        assert!((500..6_000).contains(&cost), "enter cost {cost}");
        assert_eq!(e.stats.enter.count(), 1);
    }

    #[test]
    fn leave_dmr_with_flush_is_dominated_by_the_l2_walk() {
        let (mut e, mut mem) = engine();
        let now = 50_000;
        let done = e.leave_dmr(&mut mem, VOCAL, MUTE, V_REL, &[(VOCAL, V_PERF)], true, now);
        let cost = done - now;
        // The 8192-slot L2 walk at 1 line/cycle gives ~8.2k; with
        // state staging the paper reports ~9.9–10.4k warm. This unit
        // test runs fully cold (every scratchpad line misses to DRAM
        // serially), so allow a wider upper bound; the bench harness
        // checks the warm value.
        assert!(cost >= 8_192, "flush walk must dominate: {cost}");
        assert!(cost < 25_000, "leave cost {cost}");
        assert_eq!(e.stats.leave.count(), 1);
    }

    #[test]
    fn leave_without_flush_is_much_cheaper() {
        // Warm the incoming VCPU's scratchpad so the serial restore
        // walk is cache-resident (as in steady-state operation) and
        // the flush-walk difference is visible.
        let run = |flush: bool| {
            let (mut e, mut mem) = engine();
            e.save_state(&mut mem, VOCAL, V_PERF, 0, 0);
            // With the flush, the restore happens on the mute core so
            // it is ordered behind the walk.
            let done = e.leave_dmr(
                &mut mem,
                VOCAL,
                MUTE,
                V_REL,
                &[(MUTE, V_PERF)],
                flush,
                10_000,
            );
            done - 10_000
        };
        let with_flush = run(true);
        let without = run(false);
        assert!(
            with_flush > without + 7_000,
            "flush should cost ~8k: {with_flush} vs {without}"
        );
    }

    #[test]
    fn dmr_switch_saves_and_restores_both_sides() {
        let (mut e, mut mem) = engine();
        let done = e.dmr_switch(&mut mem, VOCAL, MUTE, Some(V_REL), VcpuId(1), 0);
        assert!(done > 0);
        assert_eq!(e.stats.dmr_switch.count(), 1);
        // Cold first switch is the most expensive; a warm switch of
        // the same VCPUs is cheaper or equal.
        let done2 = e.dmr_switch(&mut mem, VOCAL, MUTE, Some(VcpuId(1)), V_REL, done);
        assert!(done2 - done <= done);
    }

    #[test]
    fn perf_switch_is_cheapest() {
        let (mut e, mut mem) = engine();
        let perf = e.perf_switch(&mut mem, VOCAL, Some(V_PERF), VcpuId(9), 0);
        let (mut e2, mut mem2) = engine();
        let dmr = e2.dmr_switch(&mut mem2, VOCAL, MUTE, Some(V_REL), VcpuId(1), 0);
        assert!(perf < dmr, "perf switch {perf} !< dmr switch {dmr}");
    }

    #[test]
    fn scratchpad_traffic_counts_as_memory_traffic() {
        let (mut e, mut mem) = engine();
        let before = mem.stats().dram_reads + mem.stats().l2_misses;
        e.enter_dmr(&mut mem, VOCAL, MUTE, &[(VOCAL, V_PERF)], V_REL, 0);
        let after = mem.stats().dram_reads + mem.stats().l2_misses;
        assert!(after > before, "staging traffic is real memory traffic");
    }
}
