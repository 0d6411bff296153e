//! Machine-readable run exports (the harness bins' `--json` mode).
//!
//! With `--json`, a bin suppresses its human-readable tables and
//! instead:
//!
//! * prints one JSON object per `(workload, seed)` report to stdout
//!   (JSONL — pipe into `scripts/validate_trace.py` or any analysis
//!   tool);
//! * writes the same lines to `results/<bin>.jsonl`;
//! * performs one short, deterministic traced run with the flight
//!   recorder attached and writes `results/<bin>.trace.json` in Chrome
//!   trace-event format (per-core mode/event timelines plus metrics
//!   counter tracks, viewable at <https://ui.perfetto.dev>) and
//!   `results/<bin>.metrics.jsonl`, the sampled metrics time-series;
//! * under `MMM_FORENSICS=1`, writes `results/<bin>.faults.jsonl`, one
//!   lifecycle record per injected fault;
//! * under `MMM_PROFILE=1`, writes `results/<bin>.profile.json`, the
//!   self-profiler's phase shares summed over every run of the bin,
//!   and `results/<bin>.speedscope.json`, the same profile as a
//!   flamegraph for <https://www.speedscope.app>.

use std::fs;
use std::path::Path;

use mmm_core::{RunResult, System, Workload};
use mmm_trace::{
    chrome_trace_full, chrome_trace_with_counters, Forensics, Json, Observers, ProfileReport,
    Sampler, Tracer, FORENSICS_WINDOW,
};
use mmm_types::SystemConfig;

/// True when the process was invoked with `--json`.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Ring capacity for traced runs: generously sized for the scheduling
/// and transition records of a short run; high-frequency filler (SI
/// stalls) overwrites oldest-first if it ever fills.
pub const TRACE_RING: usize = 1 << 16;

/// Cycle horizon of the deterministic traced run behind
/// `results/<bin>.trace.json`.
pub const TRACE_CYCLES: u64 = 150_000;

/// Flight-recorder cadence of the traced run: 10 k simulated cycles
/// per sample, 15 samples over [`TRACE_CYCLES`].
pub const SAMPLE_INTERVAL: u64 = 10_000;

/// The artifacts of one deterministic traced run.
pub struct TracedRun {
    /// Chrome trace-event document (mode timelines + counter tracks).
    pub trace_json: String,
    /// Sampled metrics time-series as JSONL.
    pub metrics_jsonl: String,
}

/// Runs `workload` from reset for [`TRACE_CYCLES`] cycles with tracing
/// and the flight recorder on, returning the Chrome trace-event
/// document (with metrics counter tracks appended) and the sampled
/// metrics time-series. Deterministic for a fixed `(cfg, workload,
/// seed, fault_rate)`.
pub fn traced_run(
    cfg: &SystemConfig,
    workload: Workload,
    seed: u64,
    fault_rate: Option<f64>,
) -> TracedRun {
    let mut sys = System::new(cfg, workload, seed).expect("traced run builds");
    if let Some(rate) = fault_rate {
        sys.enable_fault_injection(rate, seed ^ 0xF417);
    }
    // Under `MMM_FORENSICS=1`, the traced run also records fault
    // lifecycles and appends one async Perfetto span per fault
    // (injection → verdict, colored by outcome) to the trace. The
    // spans are strictly appended after the base events, so the
    // forensics-off document is a byte-identical prefix.
    let forensics = if mmm_core::experiment::env_flag("MMM_FORENSICS") {
        Forensics::enabled(cfg.cores as usize, FORENSICS_WINDOW)
    } else {
        Forensics::off()
    };
    sys.attach(Observers {
        tracer: Tracer::ring(TRACE_RING),
        sampler: Sampler::every(SAMPLE_INTERVAL),
        forensics,
        ..Observers::default()
    });
    sys.run(TRACE_CYCLES);
    let obs = sys.observers();
    let series = obs.sampler.series().expect("sampler attached");
    let trace_json = match obs.forensics.take_report() {
        Some(faults) => chrome_trace_full(
            &obs.tracer.snapshot(),
            cfg.cores as usize,
            sys.now(),
            &series,
            &faults.records,
        ),
        None => chrome_trace_with_counters(
            &obs.tracer.snapshot(),
            cfg.cores as usize,
            sys.now(),
            &series,
        ),
    };
    let metrics_jsonl = series.to_jsonl(workload.name(), workload.benchmark().name());
    TracedRun {
        trace_json,
        metrics_jsonl,
    }
}

/// Collects JSONL report lines and writes a bin's export artifacts.
pub struct JsonExport {
    name: &'static str,
    lines: Vec<String>,
    /// Forensics JSONL lines, collected from reports that carry a
    /// [`mmm_core::SystemReport::forensics`] section (i.e. runs under
    /// `MMM_FORENSICS=1`). Each report contributes one run-header line
    /// whose `run` index pairs it with the same-index line of the main
    /// JSONL, followed by one line per fault record.
    fault_lines: Vec<String>,
    /// Self-profiler attribution summed over the reports that carry a
    /// [`mmm_core::SystemReport::profile`] (runs under `MMM_PROFILE=1`).
    profile: Option<ProfileReport>,
    /// Distinct config and benchmark names of the profiled runs, in
    /// first-seen order: the identity `mmm-inspect profile` matches.
    profiled: [Vec<&'static str>; 2],
}

impl JsonExport {
    /// An empty export for the named bin.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            lines: Vec::new(),
            fault_lines: Vec::new(),
            profile: None,
            profiled: [Vec::new(), Vec::new()],
        }
    }

    /// Adds every per-seed report of a run as one JSONL line each,
    /// harvesting its forensics records (if any) into the side
    /// `*.faults.jsonl` stream and its self-profile (if any) into the
    /// bin's summed profile.
    pub fn add(&mut self, run: &RunResult) {
        for r in &run.reports {
            if let Some(p) = &r.profile {
                match &mut self.profile {
                    Some(sum) => sum.merge(p),
                    None => self.profile = Some(p.clone()),
                }
                for (seen, name) in self.profiled.iter_mut().zip([r.config, r.benchmark]) {
                    if !seen.contains(&name) {
                        seen.push(name);
                    }
                }
            }
            if let Some(f) = &r.forensics {
                self.fault_lines.extend(f.jsonl(
                    self.lines.len() as u64,
                    r.config,
                    r.benchmark,
                    r.scheduler,
                ));
            }
            self.lines.push(r.to_json());
        }
    }

    /// Prints the collected JSONL to stdout and writes
    /// `results/<bin>.jsonl`, `results/<bin>.trace.json`, and
    /// `results/<bin>.metrics.jsonl` (pass the artifacts from
    /// [`traced_run`]), plus `results/<bin>.faults.jsonl` when any
    /// report carried forensics records and `results/<bin>.profile.json`
    /// with `results/<bin>.speedscope.json` when any report carried a
    /// self-profile. File-system errors are
    /// reported on stderr but never fail the run — stdout already
    /// carries the data.
    pub fn finish(self, traced: &TracedRun) {
        for line in &self.lines {
            println!("{line}");
        }
        let dir = Path::new("results");
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("results/: {e}");
            return;
        }
        let jsonl_path = dir.join(format!("{}.jsonl", self.name));
        let trace_path = dir.join(format!("{}.trace.json", self.name));
        let metrics_path = dir.join(format!("{}.metrics.jsonl", self.name));
        let jsonl = self.lines.join("\n") + "\n";
        if let Err(e) = fs::write(&jsonl_path, jsonl) {
            eprintln!("{}: {e}", jsonl_path.display());
        }
        if let Err(e) = fs::write(&trace_path, &traced.trace_json) {
            eprintln!("{}: {e}", trace_path.display());
        }
        if let Err(e) = fs::write(&metrics_path, &traced.metrics_jsonl) {
            eprintln!("{}: {e}", metrics_path.display());
        }
        if !self.fault_lines.is_empty() {
            let faults_path = dir.join(format!("{}.faults.jsonl", self.name));
            let faults = self.fault_lines.join("\n") + "\n";
            if let Err(e) = fs::write(&faults_path, faults) {
                eprintln!("{}: {e}", faults_path.display());
            } else {
                eprintln!("wrote {}", faults_path.display());
            }
        }
        if let Some(profile) = &self.profile {
            let [configs, benchmarks] = &self.profiled;
            let doc = Json::obj([
                ("config", Json::str(configs.join(","))),
                ("benchmark", Json::str(benchmarks.join(","))),
                ("profile", profile.to_json()),
            ]);
            for (path, body) in [
                (
                    dir.join(format!("{}.profile.json", self.name)),
                    doc.render(),
                ),
                (
                    dir.join(format!("{}.speedscope.json", self.name)),
                    profile.to_speedscope(self.name),
                ),
            ] {
                match fs::write(&path, body + "\n") {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("{}: {e}", path.display()),
                }
            }
        }
        eprintln!(
            "wrote {}, {} and {}",
            jsonl_path.display(),
            trace_path.display(),
            metrics_path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_workload::Benchmark;

    #[test]
    fn traced_run_is_deterministic_and_perfetto_shaped() {
        let cfg = SystemConfig::default();
        let w = Workload::ReunionDmr(Benchmark::Apache);
        let a = traced_run(&cfg, w, 1, None);
        let b = traced_run(&cfg, w, 1, None);
        assert_eq!(
            a.trace_json, b.trace_json,
            "same seed must produce an identical trace"
        );
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert!(a.trace_json.starts_with("{\"traceEvents\":["));
        assert!(
            a.trace_json.contains("\"dmr-vocal V0\""),
            "mode slices present"
        );
        assert!(a.trace_json.contains("\"ph\":\"C\""), "counter tracks");
        assert!(a.trace_json.ends_with("\"displayTimeUnit\":\"ns\"}"));
        let lines: Vec<&str> = a.metrics_jsonl.lines().collect();
        assert_eq!(
            lines.len() as u64,
            1 + TRACE_CYCLES / SAMPLE_INTERVAL,
            "header + one line per boundary"
        );
        assert!(lines[0].contains("\"interval\":10000"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"reunion.ops_compared\""),
            "{}",
            lines[1]
        );
    }
}
