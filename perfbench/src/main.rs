//! The repository benchmark: host cost of simulating three MMM
//! machines, end to end (`--trace 0`) and per layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench digests <first-seed> <last-seed>
//! ```
//!
//! A measured run repeats whole simulations of the workload, one at a
//! time on one thread, until `--seconds` is spent, and reports each
//! timed step's floor over the repetitions (see `stats.rs`). Every
//! repetition's report is checked against its recorded digest (see
//! `check.rs`). The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed`
//! count repetitions, `metrics` maps each metric name to its value
//! and unit. The lines above it print the same metrics for people,
//! beside the host record. `digests` prints the digest table
//! `digests.txt` holds. README.md describes the workloads and metrics.

mod check;
mod layers;
mod sim;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mmm_core::SystemReport;
use mmm_types::DetRng;

use crate::sim::{Run, Spec, INTERVAL, MEASURE, SPECS};
use crate::stats::{
    fastest_quarter, floor_profile, low_median, median, percentile, quartiles, sorted,
    tail_percentile,
};

/// Share of a traced run's time spent on whole simulations; the rest
/// is split evenly over the layer replays.
const TRACE_SIM_SHARE: f64 = 0.5;
/// Layer replays in a traced run.
const REPLAYS: u32 = 6;
/// Set-ups timed (and dropped) after each run, so `setup_s` is taken
/// over many samples.
const EXTRA_SETUPS: usize = 8;

/// Command-line arguments of a measured run.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(check::DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if args.workload != "all" && sim::spec(&args.workload).is_none() {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "unknown workload {} (expected one of {} or all)",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one workload's measured run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Tally of the output checks over a run's repetitions.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// The first repetition's digest: later ones must agree with it.
    first: Option<String>,
}

impl Checks {
    /// Checks one repetition's report: its digest against the table
    /// (or, for an unrecorded seed, against the first repetition), and
    /// the workload's invariants.
    fn record(&mut self, spec: &Spec, seed: u64, report: &SystemReport) {
        self.attempted += 1;
        let d = check::digest(report);
        let expected = check::recorded(spec.name, seed)
            .map(str::to_string)
            .or_else(|| self.first.clone());
        let mut ok = true;
        if let Some(e) = expected {
            if e != d {
                eprintln!(
                    "perfbench: {} seed {seed}: digest {d}, expected {e}",
                    spec.name
                );
                ok = false;
            }
        }
        if let Err(why) = check::invariants(spec.name, report) {
            eprintln!("perfbench: {} seed {seed}: {why}", spec.name);
            ok = false;
        }
        self.first.get_or_insert(d);
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a repetition that could not run at all.
    fn error(&mut self, spec: &Spec, seed: u64, err: &mmm_types::Error) {
        eprintln!("perfbench: {} seed {seed}: {err}", spec.name);
        self.attempted += 1;
        self.failed += 1;
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether another repetition fits: always run one, then only while
/// the last one's duration still fits in what is left of `budget`.
fn another_fits(started: Instant, budget: Duration, last: Option<Duration>) -> bool {
    last.is_none_or(|last| started.elapsed() + last <= budget)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median host ns of one ChaCha8 block refill of `DetRng` (8 u64
/// draws), a fixed in-process kernel that shows how fast this host
/// runs simulator-like integer code. Informational only.
fn calibration_ns() -> f64 {
    const BLOCKS: u32 = 100_000;
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let mut rng = DetRng::new(1, 0);
            let t = Instant::now();
            for _ in 0..BLOCKS * 8 {
                std::hint::black_box(rng.next_u64());
            }
            t.elapsed().as_nanos() as f64 / f64::from(BLOCKS)
        })
        .collect();
    median(&samples).expect("seven samples")
}

fn print_host_record() {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host {host} nproc {nproc} calibration_rng_block_ns {:.2} (informational, not gated)",
        calibration_ns()
    );
}

fn tail_label(p: Option<u32>) -> String {
    p.map_or("-".into(), |p| format!("p{p}"))
}

/// End-to-end metrics: repeats whole untraced runs for `budget`.
fn measure(spec: &Spec, seed: u64, budget: Duration) -> Outcome {
    let started = Instant::now();
    let mut checks = Checks::default();
    let mut runs: Vec<Run> = Vec::new();
    let mut setups = Vec::new();
    let mut last = None;
    while another_fits(started, budget, last) {
        let rep = Instant::now();
        let run = match sim::run(spec, seed) {
            Ok(run) => run,
            Err(e) => {
                checks.error(spec, seed, &e);
                break;
            }
        };
        checks.record(spec, seed, &run.report);
        setups.push(secs(run.setup));
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            let built = spec.build(seed);
            setups.push(secs(t.elapsed()));
            drop(built);
        }
        runs.push(run);
        last = Some(rep.elapsed());
    }
    let steps = |f: fn(&Run) -> &[Duration]| {
        let reps: Vec<Vec<f64>> = runs
            .iter()
            .map(|r| f(r).iter().map(|d| secs(*d)).collect())
            .collect();
        floor_profile(&reps)
    };
    let fastest = |f: fn(&Run) -> Duration| runs.iter().map(|r| secs(f(r))).reduce(f64::min);
    let window = steps(|r| &r.window);
    let window_s: f64 = window.iter().sum();
    let warmup_s: f64 = steps(|r| &r.warmup).iter().sum();
    let wall = fastest(|r| r.setup).unwrap_or(f64::NAN)
        + warmup_s
        + window_s
        + fastest(|r| r.bookkeeping).unwrap_or(f64::NAN);
    // Every repetition simulates the same instructions (digest-checked).
    let insts = runs.first().map_or(0, |r| sim::committed_insts(&r.report));
    let intervals = sorted(&window.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let tail = tail_percentile(intervals.len(), 99);
    let windows: Vec<f64> = runs.iter().map(|r| secs(r.measure())).collect();
    println!(
        "{} seed {seed}: {} runs of {}+{MEASURE} cycles timed in steps of {INTERVAL} cycles, \
         figures from each step's floor over the runs; {} interval steps (tail {}); \
         {} set-ups; digest {}",
        spec.name,
        runs.len(),
        sim::WARMUP,
        intervals.len(),
        tail_label(tail),
        setups.len(),
        if seed == check::HELD_OUT_SEED {
            "checked against the recorded table (held-out seed)"
        } else if check::recorded(spec.name, seed).is_some() {
            "checked against the recorded table"
        } else {
            "unrecorded seed, checked for agreement across runs"
        },
    );
    if let (Some(m), Some((q1, q3))) = (median(&windows), quartiles(&windows)) {
        println!(
            "  window_s: floor {window_s:.4}; whole runs median {m:.4}, quartiles {q1:.4} .. {q3:.4}"
        );
    }
    println!(
        "  fail_rate {} ratio ({} of {} runs failed)",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: vec![
            metric("sim_cycles_per_s", MEASURE as f64 / window_s, "cycles/s"),
            metric("host_ns_per_inst", window_s * 1e9 / insts as f64, "ns"),
            metric("interval_ms_p50", percentile(&intervals, Some(50)), "ms"),
            metric("interval_ms_p99", percentile(&intervals, tail), "ms"),
            metric("run_wall_s", wall, "s"),
            metric("setup_s", low_median(&setups).unwrap_or(f64::NAN), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

/// Per-layer metrics: alternates untraced and traced runs, then runs
/// the layer replays, within `budget`.
fn trace(spec: &Spec, seed: u64, budget: Duration) -> Outcome {
    let started = Instant::now();
    let sim_budget = budget.mul_f64(TRACE_SIM_SHARE);
    let mut checks = Checks::default();
    let mut report = None;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    while another_fits(started, sim_budget, last) {
        let rep = Instant::now();
        let run = match sim::run(spec, seed) {
            Ok(run) => run,
            Err(e) => {
                checks.error(spec, seed, &e);
                break;
            }
        };
        checks.record(spec, seed, &run.report);
        plain.push(secs(run.measure()));
        report.get_or_insert(run.report);
        match sim::run_traced(spec, seed) {
            Ok(t) => {
                checks.record(spec, seed, &t.report);
                traced.push(t);
            }
            Err(e) => checks.error(spec, seed, &e),
        }
        last = Some(rep.elapsed());
    }
    let Some(r) = report else {
        return Outcome {
            attempted: checks.attempted,
            failed: checks.failed,
            metrics: vec![],
        };
    };
    let replay_budget = budget
        .saturating_sub(started.elapsed())
        .div_f64(f64::from(REPLAYS));
    let next_op = layers::next_op_ns(spec, seed, replay_budget);
    let core_tick = layers::core_tick_ns(spec, seed, replay_budget);
    let mem_access = layers::mem_access_ns(spec, seed, replay_budget);
    let pab_check = layers::pab_check_ns(spec, seed, replay_budget);
    let (leave, enter) = layers::transition_ns(spec, seed, replay_budget);
    let pair_cycle = layers::pair_cycle_ns(spec, seed, replay_budget);

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let total = traced.len();
    let kept = fastest_quarter(traced, |t| secs(t.measure));
    let (ticks, cycles) = kept
        .first()
        .map_or((0, 0), |t| (t.tick_ns.len() as u64, t.cycles));
    let coverage: Vec<f64> = kept
        .iter()
        .map(|t| {
            let spans: u64 = t.tick_ns.iter().map(|&n| u64::from(n)).sum();
            spans as f64 / t.measure.as_nanos() as f64
        })
        .collect();
    let coverage = median(&coverage).unwrap_or(f64::NAN);
    // Per simulated cycle: the traced part of the window stops short of
    // its untraced tail.
    let overhead = kept
        .first()
        .map_or(f64::NAN, |t| secs(t.measure) / t.cycles as f64)
        / (plain.iter().copied().reduce(f64::min).unwrap_or(f64::NAN) / MEASURE as f64);
    let mut spans: Vec<u32> = kept
        .iter()
        .flat_map(|t| t.tick_ns.iter().copied())
        .collect();
    spans.sort_unstable();
    let tail = tail_percentile(spans.len(), 99);
    println!(
        "{} seed {seed}: {} untraced + {total} traced runs, fastest {} traced kept, \
         {} tick spans (tail {}); counts from the SystemReport, *_ns from layer replays",
        spec.name,
        plain.len(),
        kept.len(),
        spans.len(),
        tail_label(tail),
    );
    let m = &r.mem;
    let l1 = m.l1i_hits + m.l1i_misses + m.l1d_hits + m.l1d_misses;
    let transitions = r.transitions.enter.count()
        + r.transitions.leave.count()
        + r.transitions.dmr_switch.count()
        + r.transitions.perf_switch.count();
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: vec![
            metric("core.tick_ns_p50", percentile(&spans, Some(50)), "ns"),
            metric("core.tick_ns_p99", percentile(&spans, tail), "ns"),
            metric("core.ticks", ticks as f64, "count"),
            metric("core.cycles_per_tick", ratio(cycles, ticks), "cycles"),
            metric("core.span_coverage", coverage, "ratio"),
            metric("core.pab_check_ns", pab_check, "ns"),
            metric("core.pab_lookups", r.pab.lookups as f64, "count"),
            metric(
                "core.pab_hit_ratio",
                ratio(r.pab.hits, r.pab.lookups),
                "ratio",
            ),
            metric("core.leave_dmr_ns", leave, "ns"),
            metric("core.enter_dmr_ns", enter, "ns"),
            metric("core.transitions", transitions as f64, "count"),
            metric("core.faults_injected", r.faults.injected as f64, "count"),
            metric(
                "core.fault_contained_ratio",
                ratio(r.faults.contained(), r.faults.injected),
                "ratio",
            ),
            metric("cpu.core_tick_ns", core_tick, "ns"),
            metric("cpu.commits", r.cores.commits() as f64, "count"),
            metric(
                "cpu.squash_ratio",
                ratio(r.cores.squashes, r.cores.commits()),
                "ratio",
            ),
            metric("workload.next_op_ns", next_op, "ns"),
            metric("mem.access_ns", mem_access, "ns"),
            metric("mem.accesses", l1 as f64, "count"),
            metric(
                "mem.l2_miss_ratio",
                ratio(m.l2_misses, m.l2_hits + m.l2_misses),
                "ratio",
            ),
            metric("mem.c2c_transfers", m.c2c_transfers as f64, "count"),
            metric("mem.dram_reads", m.dram_reads as f64, "count"),
            metric("mem.incoherent_fills", m.incoherent_fills as f64, "count"),
            metric("mem.flush_cycles", m.flush_cycles as f64, "cycles"),
            metric("reunion.pair_cycle_ns", pair_cycle, "ns"),
            metric("reunion.ops_compared", r.pairs.ops_compared as f64, "count"),
            metric(
                "reunion.input_incoherence",
                r.pairs.input_incoherence as f64,
                "count",
            ),
            metric(
                "reunion.recovery_cycles",
                r.pairs.recovery_cycles as f64,
                "cycles",
            ),
            metric("trace.overhead_ratio", overhead, "ratio"),
        ],
    }
}

/// Renders a float as JSON: shortest round-trip digits, `null` when
/// not finite.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_benchmark(args: &Args) {
    print_host_record();
    let specs: Vec<Spec> = if args.workload == "all" {
        SPECS.to_vec()
    } else {
        sim::spec(&args.workload).into_iter().collect()
    };
    let budget = Duration::from_secs(args.seconds).div_f64(specs.len() as f64);
    let prefix = specs.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut outcomes = Vec::new();
    for spec in &specs {
        let out = if args.trace {
            trace(spec, args.seed, budget)
        } else {
            measure(spec, args.seed, budget)
        };
        for m in &out.metrics {
            println!("  {:<28} {:>16} {}", m.name, json_num(m.value), m.unit);
        }
        attempted += out.attempted;
        failed += out.failed;
        outcomes.push((spec.name, out));
    }
    let all: Vec<(String, &Metric)> = outcomes
        .iter()
        .flat_map(|(w, out)| {
            out.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{w}.{}", m.name)
                } else {
                    m.name.to_string()
                };
                (name, m)
            })
        })
        .collect();
    let finite = all.iter().all(|(_, m)| m.value.is_finite());
    let correct = failed == 0 && attempted > 0 && finite;
    println!("{}", result_line(correct, attempted, failed, &all));
}

/// Prints `digests.txt` lines for every workload and seed in
/// `first..=last`.
fn print_digests(first: u64, last: u64) -> Result<(), String> {
    println!("# workload seed digest (FNV-1a of SystemReport::to_json, wall_seconds = 0)");
    println!(
        "# warm-up {} + measured {MEASURE} cycles per run",
        sim::WARMUP
    );
    for spec in &SPECS {
        for seed in first..=last {
            let run = sim::run(spec, seed).map_err(|e| e.to_string())?;
            check::invariants(spec.name, &run.report)
                .map_err(|why| format!("{} seed {seed}: {why}", spec.name))?;
            println!("{} {seed} {}", spec.name, check::digest(&run.report));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("digests") {
        let seed = |i: usize| argv.get(i).and_then(|s| s.parse::<u64>().ok());
        let result = match (seed(1), seed(2)) {
            (Some(a), Some(b)) if a <= b => print_digests(a, b),
            _ => Err("usage: perfbench digests <first-seed> <last-seed>".into()),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => {
            // A run that printed its result exits 0, failed checks
            // included: `correct` and `failed` carry the verdict.
            run_benchmark(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::from(2)
        }
    }
}
