//! The three benchmark machines and one simulated run of each.
//!
//! A run is what a user of the simulator pays for one experiment:
//! build the [`System`], run a warm-up, reset the counters, run the
//! measured window and build the [`SystemReport`]. The benchmark times
//! that sequence from outside, through the public API only; no
//! observability handle is attached.

use std::time::{Duration, Instant};

use mmm_core::{MixedPolicy, System, SystemReport, Workload};
use mmm_types::{Result, SystemConfig};
use mmm_workload::Benchmark;

/// Warm-up cycles per run: the caches fill before measurement starts.
pub const WARMUP: u64 = 125_000;
/// Measured cycles per run.
pub const MEASURE: u64 = 500_000;
/// Warm-up and measured window are run as calls of
/// `System::run(INTERVAL)`, each one timed: a step of the run. The
/// window's steps are the interval latency samples. Chunking leaves the
/// report byte-identical to one `run_measured` (tested).
pub const INTERVAL: u64 = 500;
/// Gang timeslice of `mmmtp_apache_faults`, short enough that four
/// switches (32 mode transitions) land in the measured window.
pub const MMMTP_TIMESLICE: u64 = 125_000;
/// Fault-injection rate of `mmmtp_apache_faults`, per core-cycle.
pub const FAULT_RATE: f64 = 1e-5;

/// One benchmark workload: a machine configuration and a fault rate.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The simulated machine.
    pub workload: Workload,
    /// Fault-injection rate per core-cycle, if injection is on.
    pub fault_rate: Option<f64>,
    /// Gang timeslice override in cycles.
    pub timeslice: Option<u64>,
}

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "reunion_oltp",
        workload: Workload::ReunionDmr(Benchmark::Oltp),
        fault_rate: None,
        timeslice: None,
    },
    Spec {
        name: "nodmr2x_pmake",
        workload: Workload::NoDmr2x(Benchmark::Pmake),
        fault_rate: None,
        timeslice: None,
    },
    Spec {
        name: "mmmtp_apache_faults",
        workload: Workload::Consolidated {
            bench: Benchmark::Apache,
            policy: MixedPolicy::MmmTp,
        },
        fault_rate: Some(FAULT_RATE),
        timeslice: Some(MMMTP_TIMESLICE),
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The machine configuration of this workload.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::default();
        if let Some(t) = self.timeslice {
            cfg.virt.timeslice_cycles = t;
        }
        cfg
    }

    /// Set-up: `System::new` plus enabling fault injection, seeded as
    /// the experiment harness seeds it.
    pub fn build(&self, seed: u64) -> Result<System> {
        let mut sys = System::new(&self.config(), self.workload, seed)?;
        if let Some(rate) = self.fault_rate {
            sys.enable_fault_injection(rate, seed ^ 0xF417);
        }
        Ok(sys)
    }
}

/// One untraced run, timed step by step.
pub struct Run {
    /// Set-up time.
    pub setup: Duration,
    /// Time of each warm-up `System::run(INTERVAL)` call.
    pub warmup: Vec<Duration>,
    /// Time of each measured-window `System::run(INTERVAL)` call.
    pub window: Vec<Duration>,
    /// Time of `reset_measurement` plus building the report.
    pub bookkeeping: Duration,
    /// The run's report.
    pub report: SystemReport,
}

impl Run {
    /// Host time of the measured window.
    pub fn measure(&self) -> Duration {
        self.window.iter().sum()
    }
}

/// Times `cycles / INTERVAL` calls of `System::run(INTERVAL)`.
fn timed_chunks(sys: &mut System, cycles: u64) -> Vec<Duration> {
    (0..cycles / INTERVAL)
        .map(|_| {
            let t = Instant::now();
            sys.run(INTERVAL);
            t.elapsed()
        })
        .collect()
}

/// Simulates one run of `spec` under `seed`.
pub fn run(spec: &Spec, seed: u64) -> Result<Run> {
    let t = Instant::now();
    let mut sys = spec.build(seed)?;
    let setup = t.elapsed();
    let warmup = timed_chunks(&mut sys, WARMUP);
    let t = Instant::now();
    sys.reset_measurement();
    let mut bookkeeping = t.elapsed();
    let window = timed_chunks(&mut sys, MEASURE);
    let t = Instant::now();
    let report = sys.report(MEASURE);
    bookkeeping += t.elapsed();
    Ok(Run {
        setup,
        warmup,
        window,
        bookkeeping,
        report,
    })
}

/// One traced run: the measured window is driven one
/// `System::tick()` at a time, with a span around every call, up to
/// its last [`UNTRACED_TAIL`] cycles.
pub struct TracedRun {
    /// Host time of the ticked part of the window, spans included.
    pub measure: Duration,
    /// Host nanoseconds of each tick.
    pub tick_ns: Vec<u32>,
    /// Simulated cycles the ticks covered.
    pub cycles: u64,
    /// The run's report.
    pub report: SystemReport,
}

/// Cycles at the end of a traced window left to one `System::run`
/// call. A tick may fast-forward past any target cycle; `run` clamps
/// at its end, so the traced window ends exactly where an untraced
/// one does and its report must match the recorded digest. No tick
/// outside a gang switch sleeps anywhere near this long, and switch
/// stalls stop at the slice boundary that ends the window.
const UNTRACED_TAIL: u64 = 10_000;

/// Simulates one traced run of `spec` under `seed`.
pub fn run_traced(spec: &Spec, seed: u64) -> Result<TracedRun> {
    let mut sys = spec.build(seed)?;
    sys.run(WARMUP);
    sys.reset_measurement();
    let start = sys.now();
    let end = start + MEASURE;
    // A tick advances at least one cycle, so MEASURE bounds the count.
    let mut tick_ns = Vec::with_capacity(MEASURE as usize);
    let window = Instant::now();
    while sys.now() + UNTRACED_TAIL < end {
        let t = Instant::now();
        sys.tick();
        tick_ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
    }
    let measure = window.elapsed();
    let cycles = sys.now() - start;
    sys.run(end.saturating_sub(sys.now()));
    Ok(TracedRun {
        measure,
        tick_ns,
        cycles,
        report: sys.report(MEASURE),
    })
}

/// Committed instructions (user + OS) over the measured window, summed
/// over VCPUs: a DMR pair's redundant copy is not counted twice.
pub fn committed_insts(report: &SystemReport) -> u64 {
    report
        .vcpus
        .iter()
        .map(|v| v.user_commits + v.os_commits)
        .sum()
}
