//! Golden-file test of the Chrome trace export.
//!
//! A short deterministic run of the consolidated server is traced and
//! rendered through [`mmm_trace::chrome_trace`]; the result must match
//! the checked-in `tests/data/trace_golden.json` byte for byte. This
//! pins the whole observability pipeline — event emission sites, ring
//! ordering, and the JSON serializer — so accidental drift in any layer
//! shows up in CI.
//!
//! After an *intentional* change to the trace format or the emission
//! sites, regenerate the golden file:
//!
//! ```text
//! MMM_BLESS=1 cargo test --release --test trace_export
//! ```

use mmm_core::{MixedPolicy, System, Workload};
use mmm_trace::{chrome_trace, Observers, Tracer};
use mmm_types::SystemConfig;
use mmm_workload::Benchmark;

mod common;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/trace_golden.json");

/// A short consolidated-server run with fast gang switching, so the
/// trace exercises installs, evictions, mode transitions, SI stalls,
/// and phase boundaries inside a small horizon.
fn build_trace() -> String {
    let mut cfg = SystemConfig::default();
    cfg.virt.timeslice_cycles = 5_000;
    let mut sys = System::new(
        &cfg,
        Workload::Consolidated {
            bench: Benchmark::Oltp,
            policy: MixedPolicy::MmmIpc,
        },
        1,
    )
    .expect("golden trace system builds");
    sys.attach(Observers {
        tracer: Tracer::ring(1 << 14),
        ..Observers::default()
    });
    sys.run(12_000);
    chrome_trace(&sys.observers().tracer.snapshot(), 16, sys.now())
}

#[test]
fn trace_json_matches_golden() {
    let got = build_trace();
    if std::env::var("MMM_BLESS").is_ok() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect(
        "tests/data/trace_golden.json missing — regenerate with \
         MMM_BLESS=1 cargo test --release --test trace_export",
    );
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "trace.json drifted from golden (got {} bytes, want {}, first \
             difference at byte {at}):\n  got:  ...{}\n  want: ...{}\n\
             If the change is intentional, regenerate with \
             MMM_BLESS=1 cargo test --release --test trace_export",
            got.len(),
            want.len(),
            &got[lo..(at + 80).min(got.len())],
            &want[lo..(at + 80).min(want.len())],
        );
    }
}

/// The tracer and the forensics recorder, each attached alone, leave
/// the simulated timing of both observer workloads untouched.
#[test]
fn tracing_does_not_change_timing() {
    common::assert_observers_do_not_change_timing(&["tracer", "forensics"]);
}

/// The self-profiler, alone and with every other handle, leaves the
/// simulated timing untouched; its profile tiles the measured window
/// and reaches the pairs, the memory system and op generation.
#[test]
fn profiling_does_not_change_timing() {
    common::assert_observers_do_not_change_timing(&["profiler", "all"]);
}

#[test]
fn trace_has_the_expected_shape() {
    let got = build_trace();
    assert!(got.starts_with("{\"traceEvents\":["));
    assert!(got.ends_with("\"displayTimeUnit\":\"ns\"}"));
    // Mode slices for the DMR guest and the performance guest both
    // appear, as do gang-switch transition slices.
    assert!(got.contains("\"dmr-vocal V0\""), "DMR mode track");
    assert!(got.contains("\"perf V"), "performance mode track");
    assert!(got.contains("\"leave_dmr\""), "transition slices");
    assert!(got.contains("\"thread_name\""), "track metadata");
}
