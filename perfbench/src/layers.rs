//! Layer replays: each simulator layer's public entry point, fed with
//! inputs generated from the workload's own profile and timed from
//! outside.
//!
//! A replay is cut into units. Each unit rebuilds its layer from the
//! same inputs (untimed), warms it (untimed), then times a fixed
//! amount of work; the reported figure is host nanoseconds per call,
//! the median over the fastest quarter of the units (see `stats.rs`).
//! Every unit of a replay does identical simulated work, so only host
//! time varies between them.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use mmm_core::{check_store, Pab, Pat, RelMode, TransitionEngine, VcpuSpec};
use mmm_cpu::{Core, ExecContext};
use mmm_mem::request::store_token;
use mmm_mem::MemorySystem;
use mmm_reunion::DmrPair;
use mmm_types::ids::PAGE_SHIFT;
use mmm_types::{CoreId, Cycle, LineAddr, SystemConfig, VcpuId};
use mmm_workload::layout::{PAT_BASE, SCRATCHPAD_BASE};
use mmm_workload::{AddressLayout, OpClass, OpStream};

use crate::sim::Spec;
use crate::stats::low_median;

/// Ops generated per `workload.next_op_ns` unit.
const OPGEN_OPS: u64 = 200_000;
/// Cycles per `cpu.core_tick_ns` and `reunion.pair_cycle_ns` unit.
const CORE_CYCLES: u64 = 40_000;
/// Ops per core replayed through the memory system per unit (the same
/// number again warms the caches first).
const MEM_OPS_PER_CORE: u64 = 6_000;
/// Leave/enter round trips per transition unit.
const TRANSITION_ROUNDS: usize = 8;
/// Incoherent lines loaded into the mute's L2 before each Leave-DMR,
/// so every flush walk has lines to discard.
const MUTE_REFILL_LINES: usize = 2_048;

/// One core's stream in a replay: the VCPU it runs and whether its
/// requests are coherent (a DMR mute's are not).
#[derive(Clone, Copy)]
struct Lane {
    core: CoreId,
    spec: VcpuSpec,
    coherent: bool,
}

/// The steady core assignment of a workload: DMR pairs (vocal
/// coherent, mute incoherent, both on the pair's VCPU) when every VCPU
/// is reliable, otherwise the performance VCPUs one per core — the
/// performance timeslice of a consolidated machine.
fn lanes(spec: &Spec, cfg: &SystemConfig) -> Vec<Lane> {
    let specs = spec
        .workload
        .vcpu_specs(cfg)
        .expect("benchmark workloads have valid topologies");
    let cores = cfg.cores as usize;
    let perf: Vec<VcpuSpec> = specs
        .iter()
        .copied()
        .filter(|s| s.mode != RelMode::Reliable)
        .collect();
    (0..cores)
        .map(|c| {
            let core = CoreId(c as u16);
            if perf.is_empty() {
                Lane {
                    core,
                    spec: specs[(c / 2) % specs.len()],
                    coherent: c % 2 == 0,
                }
            } else {
                Lane {
                    core,
                    spec: perf[c % perf.len()],
                    coherent: true,
                }
            }
        })
        .collect()
}

fn stream(spec: &VcpuSpec, seed: u64) -> OpStream {
    OpStream::new(spec.bench.profile(), spec.vm, spec.vcpu, seed)
}

/// What a replayed memory request does.
#[derive(Clone, Copy)]
enum Kind {
    Fetch,
    Load,
    Store,
}

/// One replayed memory request.
#[derive(Clone, Copy)]
struct Req {
    core: CoreId,
    vcpu: VcpuId,
    coherent: bool,
    kind: Kind,
    line: LineAddr,
}

/// The fetch, load and store addresses of `ops` ops per lane,
/// interleaved one op per lane per cycle. A fetch is issued only when
/// the fetch line changes, as the core's fetch unit does.
fn mem_trace(lanes: &[Lane], seed: u64, ops: u64) -> Vec<Req> {
    let mut streams: Vec<OpStream> = lanes.iter().map(|l| stream(&l.spec, seed)).collect();
    let mut last_fetch: Vec<Option<LineAddr>> = vec![None; lanes.len()];
    let mut out = Vec::new();
    for _ in 0..ops {
        for (i, l) in lanes.iter().enumerate() {
            let op = streams[i].next_op();
            let req = |kind, line| Req {
                core: l.core,
                vcpu: l.spec.vcpu,
                coherent: l.coherent,
                kind,
                line,
            };
            let fetch = op.fetch_addr.line();
            if last_fetch[i] != Some(fetch) {
                last_fetch[i] = Some(fetch);
                out.push(req(Kind::Fetch, fetch));
            }
            if let Some(addr) = op.data_addr {
                match op.class {
                    OpClass::Load => out.push(req(Kind::Load, addr.line())),
                    OpClass::Store => out.push(req(Kind::Store, addr.line())),
                    _ => {}
                }
            }
        }
    }
    out
}

/// Replays `reqs` through `mem`, one lane-round per cycle from `now`;
/// returns the cycle after the last request.
fn replay(mem: &mut MemorySystem, reqs: &[Req], lanes: usize, mut now: Cycle) -> Cycle {
    for (i, r) in reqs.iter().enumerate() {
        if i % lanes == 0 {
            now += 1;
        }
        match r.kind {
            Kind::Fetch => {
                black_box(mem.ifetch(r.core, r.line, r.coherent, now));
            }
            Kind::Load => {
                black_box(mem.load(r.core, r.line, r.coherent, now));
            }
            Kind::Store => {
                let acq = mem.store_acquire(r.core, r.line, r.coherent, now);
                let token = store_token(r.vcpu, r.line, i as u64);
                black_box(mem.store_commit(r.core, r.line, token, r.coherent, acq.complete_at));
            }
        }
    }
    now
}

/// Runs timed units until `budget` is spent (at least `min_units`);
/// each unit returns its timed duration and the calls it made. Returns
/// the ns per call of the fastest quarter's median unit.
fn units(budget: Duration, min_units: usize, mut unit: impl FnMut() -> (Duration, u64)) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < min_units || started.elapsed() < budget {
        let (t, calls) = unit();
        per_call.push(t.as_nanos() as f64 / calls.max(1) as f64);
    }
    low_median(&per_call).expect("at least one unit ran")
}

/// Host ns per op of `OpStream::next_ops` on the first lane's profile.
pub fn next_op_ns(spec: &Spec, seed: u64, budget: Duration) -> f64 {
    let cfg = spec.config();
    let lane = lanes(spec, &cfg)[0];
    units(budget, 3, || {
        let mut s = stream(&lane.spec, seed);
        let t = Instant::now();
        s.next_ops(OPGEN_OPS, |op| {
            black_box(op);
        });
        (t.elapsed(), OPGEN_OPS)
    })
}

/// Host ns per `Core::tick` call on a solo core running the first
/// lane's VCPU, with the system's wake-hint skipping.
pub fn core_tick_ns(spec: &Spec, seed: u64, budget: Duration) -> f64 {
    let cfg = spec.config();
    let lane = lanes(spec, &cfg)[0];
    units(budget, 3, || {
        let mut mem = MemorySystem::new(&cfg);
        let mut core = Core::new(CoreId(0), &cfg);
        core.set_context(ExecContext::new(stream(&lane.spec, seed)));
        let mut now = 0;
        let mut ticks = 0u64;
        let t = Instant::now();
        while now < CORE_CYCLES {
            now = now.max(core.wake_hint());
            core.tick(now, &mut mem);
            now += 1;
            ticks += 1;
        }
        (t.elapsed(), ticks)
    })
}

/// Host ns per request of the op streams' fetch, load and store
/// addresses replayed through `ifetch`, `load`, `store_acquire` +
/// `store_commit` over the 16 cores, on caches warmed by the same
/// streams.
pub fn mem_access_ns(spec: &Spec, seed: u64, budget: Duration) -> f64 {
    let cfg = spec.config();
    let lanes = lanes(spec, &cfg);
    let reqs = mem_trace(&lanes, seed, 2 * MEM_OPS_PER_CORE);
    let (warm, timed) = reqs.split_at(reqs.len() / 2);
    units(budget, 3, || {
        let mut mem = MemorySystem::new(&cfg);
        let now = replay(&mut mem, warm, lanes.len(), 0);
        let t = Instant::now();
        replay(&mut mem, timed, lanes.len(), now);
        (t.elapsed(), timed.len() as u64)
    })
}

/// The PAT as the system initializes it: machine-owned regions and
/// every reliable VM's span are reliable-only.
fn pat(spec: &Spec, cfg: &SystemConfig) -> Pat {
    let layout = AddressLayout::new();
    let mut pat = Pat::new();
    pat.set_range_reliable(
        (SCRATCHPAD_BASE >> PAGE_SHIFT)..((PAT_BASE + (64 << 20)) >> PAGE_SHIFT),
        true,
    );
    for s in spec.workload.vcpu_specs(cfg).expect("valid topology") {
        if s.mode == RelMode::Reliable {
            pat.set_range_reliable(layout.vm_pages(s.vm), true);
        }
    }
    pat
}

/// Host ns per `check_store` on the store lines of the workload's
/// streams, each checked by the core that issued it, against one PAB
/// per core warmed by the first half of the stores.
pub fn pab_check_ns(spec: &Spec, seed: u64, budget: Duration) -> f64 {
    let cfg = spec.config();
    let lanes = lanes(spec, &cfg);
    let pat = pat(spec, &cfg);
    let stores: Vec<Req> = mem_trace(&lanes, seed, 2 * MEM_OPS_PER_CORE)
        .into_iter()
        .filter(|r| matches!(r.kind, Kind::Store))
        .collect();
    let (warm, timed) = stores.split_at(stores.len() / 2);
    units(budget, 3, || {
        let mut mem = MemorySystem::new(&cfg);
        let pabs: Vec<RefCell<Pab>> = (0..cfg.cores)
            .map(|_| RefCell::new(Pab::new(cfg.pab)))
            .collect();
        let mut check = |reqs: &[Req], mut now: Cycle| {
            for r in reqs {
                let pab = &pabs[r.core.index()];
                now = black_box(check_store(pab, r.core, r.line, &pat, &mut mem, now)).0;
            }
            now
        };
        let now = check(warm, 0);
        let t = Instant::now();
        check(timed, now);
        (t.elapsed(), timed.len() as u64)
    })
}

/// Host ns per `TransitionEngine::leave_dmr` (with the mute flush
/// walk) and per `enter_dmr`, on pair 0 of a memory system warmed by
/// the workload's streams.
pub fn transition_ns(spec: &Spec, seed: u64, budget: Duration) -> (f64, f64) {
    let cfg = spec.config();
    let lanes = lanes(spec, &cfg);
    let reqs = mem_trace(&lanes, seed, MEM_OPS_PER_CORE);
    let specs = spec.workload.vcpu_specs(&cfg).expect("valid topology");
    let vcpu = |i: usize| specs[i % specs.len()].vcpu;
    let (vocal, mute) = (CoreId(0), CoreId(1));
    let (reliable, perf) = ([vcpu(0)], [(vocal, vcpu(1)), (mute, vcpu(2))]);
    let refill: Vec<LineAddr> = reqs
        .iter()
        .filter(|r| !matches!(r.kind, Kind::Fetch))
        .map(|r| r.line)
        .take(MUTE_REFILL_LINES)
        .collect();
    let mut leave = Vec::new();
    let mut enter = Vec::new();
    let started = Instant::now();
    while leave.len() < 3 * TRANSITION_ROUNDS || started.elapsed() < budget {
        let mut mem = MemorySystem::new(&cfg);
        let mut engine = TransitionEngine::new(cfg.virt, cfg.reunion);
        let mut now = replay(&mut mem, &reqs, lanes.len(), 0);
        for _ in 0..TRANSITION_ROUNDS {
            for &line in &refill {
                now = now.max(mem.load(mute, line, false, now).complete_at);
            }
            let t = Instant::now();
            now = engine.leave_dmr(&mut mem, vocal, mute, reliable[0], &perf, true, now);
            leave.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            now = engine.enter_dmr(&mut mem, vocal, mute, &perf, reliable[0], now);
            enter.push(t.elapsed().as_nanos() as f64);
        }
    }
    (
        low_median(&leave).expect("ran"),
        low_median(&enter).expect("ran"),
    )
}

/// Host ns per simulated cycle of a `DmrPair`: two cores coupled on the
/// first DMR VCPU's stream (or the first lane's, for a machine without
/// pairs), both ticked, then the pair serviced — the system's per-cycle
/// pair work, with its wake-hint skipping.
pub fn pair_cycle_ns(spec: &Spec, seed: u64, budget: Duration) -> f64 {
    let cfg = spec.config();
    let specs = spec.workload.vcpu_specs(&cfg).expect("valid topology");
    let vcpu = specs
        .iter()
        .copied()
        .find(|s| s.mode == RelMode::Reliable)
        .unwrap_or(lanes(spec, &cfg)[0].spec);
    units(budget, 3, || {
        let mut mem = MemorySystem::new(&cfg);
        let mut vocal = Core::new(CoreId(0), &cfg);
        let mut mute = Core::new(CoreId(1), &cfg);
        let ctx = ExecContext::new(stream(&vcpu, seed));
        let pair = DmrPair::couple(&mut vocal, &mut mute, ctx, &cfg.reunion);
        let mut now = 0;
        let mut cycles = 0u64;
        let t = Instant::now();
        while now < CORE_CYCLES {
            now = now.max(vocal.wake_hint().min(mute.wake_hint()));
            if now >= vocal.wake_hint() {
                vocal.tick(now, &mut mem);
            }
            if now >= mute.wake_hint() {
                mute.tick(now, &mut mem);
            }
            if pair.needs_service() {
                black_box(pair.service(&mut mem));
            }
            now += 1;
            cycles += 1;
        }
        (t.elapsed(), cycles)
    })
}
