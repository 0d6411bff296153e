//! Golden-file test of the flight-recorder export.
//!
//! A short deterministic run of the fig5 reference configuration —
//! `ReunionDmr(Oltp)` — records a 10 k-cycle-interval metrics
//! time-series; its JSONL rendering must match the checked-in
//! `tests/data/metrics_golden.jsonl` byte for byte. This pins the
//! sampling cadence, the delta conventions (counter deltas, gauge
//! last-values, mergeable histogram deltas), and the JSON serializer.
//!
//! After an *intentional* change to the sampled metrics or the export
//! format, regenerate the golden file:
//!
//! ```text
//! MMM_BLESS=1 cargo test --release --test metrics_export
//! ```

use mmm_core::{System, Workload};
use mmm_trace::{chrome_trace_with_counters, Json, MetricsSeries, Observers, Sampler, Tracer};
use mmm_types::SystemConfig;
use mmm_workload::Benchmark;

mod common;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/metrics_golden.jsonl"
);

const INTERVAL: u64 = 10_000;
const HORIZON: u64 = 60_000;

/// The fig5 reference run with the flight recorder attached: every
/// core busy under Reunion DMR, six sampling boundaries.
fn build() -> (System, MetricsSeries) {
    let cfg = SystemConfig::default();
    let mut sys = System::new(&cfg, Workload::ReunionDmr(Benchmark::Oltp), 1)
        .expect("golden metrics system builds");
    sys.attach(Observers {
        tracer: Tracer::ring(1 << 14),
        sampler: Sampler::every(INTERVAL),
        ..Observers::default()
    });
    sys.run(HORIZON);
    let series = sys.observers().sampler.series().expect("sampler attached");
    (sys, series)
}

#[test]
fn metrics_jsonl_matches_golden() {
    let (_, series) = build();
    let got = series.to_jsonl("Reunion", "OLTP");
    if std::env::var("MMM_BLESS").is_ok() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect(
        "tests/data/metrics_golden.jsonl missing — regenerate with \
         MMM_BLESS=1 cargo test --release --test metrics_export",
    );
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "metrics.jsonl drifted from golden (got {} bytes, want {}, first \
             difference at byte {at}):\n  got:  ...{}\n  want: ...{}\n\
             If the change is intentional, regenerate with \
             MMM_BLESS=1 cargo test --release --test metrics_export",
            got.len(),
            want.len(),
            &got[lo..(at + 80).min(got.len())],
            &want[lo..(at + 80).min(want.len())],
        );
    }
}

#[test]
fn series_has_every_boundary_and_the_flagship_metrics() {
    let (_, series) = build();
    assert_eq!(series.interval, INTERVAL);
    assert_eq!(series.samples.len() as u64, HORIZON / INTERVAL);
    for (i, s) in series.samples.iter().enumerate() {
        assert_eq!(s.at, (i as u64 + 1) * INTERVAL, "boundary cadence");
        assert!(
            s.counters.iter().any(|(n, _)| n == "reunion.ops_compared"),
            "every interval compares ops on a fully-paired machine"
        );
    }
    let last = series.samples.last().unwrap();
    assert!(
        last.histograms
            .iter()
            .any(|(n, _)| n == "reunion.channel_occupancy"),
        "pair-channel occupancy histogram sampled"
    );
}

/// The counter tracks appended to the Chrome trace are well-formed
/// Perfetto counter events: `"ph":"C"`, a name, a numeric
/// `args.value`, and per-name monotone timestamps.
#[test]
fn counter_tracks_are_well_formed() {
    let (sys, series) = build();
    let doc =
        chrome_trace_with_counters(&sys.observers().tracer.snapshot(), 16, sys.now(), &series);
    let parsed = Json::parse(&doc).expect("trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut last_ts: std::collections::BTreeMap<String, u64> = Default::default();
    let mut counters = 0;
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("C") {
            continue;
        }
        counters += 1;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .expect("counter has a name");
        let ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .expect("counter has an integer ts");
        let prev = last_ts.insert(name.to_string(), ts).unwrap_or(0);
        assert!(ts >= prev, "counter {name} timestamps must be monotone");
        ev.get("args")
            .and_then(|a| a.get("value"))
            .and_then(Json::as_f64)
            .expect("counter has a numeric args.value");
    }
    assert!(counters > 0, "counter tracks present");
}

/// The sampler is purely observational: a sampled run and an
/// unsampled run of the same seed are bit-identical measurements.
#[test]
fn sampling_does_not_change_timing() {
    common::assert_observers_do_not_change_timing(&["sampler"]);
}
