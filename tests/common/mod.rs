//! The observer on/off check shared by the trace and metrics export
//! tests: one table-driven run over `Observers` bundles, each compared
//! with the unobserved run of the same seed.

use mmm_core::{MixedPolicy, System, Workload};
use mmm_trace::{Forensics, Observers, ProfPhase, Profiler, Sampler, Tracer, FORENSICS_WINDOW};
use mmm_types::SystemConfig;
use mmm_workload::Benchmark;

/// A fresh bundle with the handle `name` on (`"all"`: every handle,
/// `"none"`: none). Fresh per run, as clones share their recording.
fn bundle(name: &str) -> Observers {
    let on = |handle: &str| name == handle || name == "all";
    Observers {
        tracer: if on("tracer") {
            Tracer::ring(4096)
        } else {
            Tracer::off()
        },
        sampler: if on("sampler") {
            Sampler::every(7_000)
        } else {
            Sampler::off()
        },
        profiler: if on("profiler") {
            Profiler::enabled()
        } else {
            Profiler::off()
        },
        forensics: if on("forensics") {
            Forensics::enabled(16, FORENSICS_WINDOW)
        } else {
            Forensics::off()
        },
    }
}

/// Every observer is purely observational. With each bundle named in
/// `handles` attached (a handle name, or `"all"`), a run measures
/// exactly what the unobserved run of the same seed measures, and
/// each attached handle carries its own record: a profile whose phases
/// tile the measured window, a sampled series, trace events.
///
/// The MMM-TP machine switches gang slices every 20k cycles and the
/// measured window opens after the first switch, so every pair it
/// services was coupled after `attach`; the all-on profile's nonzero
/// pair, memory and op-generation time shows the handles reached them.
pub fn assert_observers_do_not_change_timing(handles: &[&str]) {
    const WARMUP: u64 = 25_000;
    const MEASURE: u64 = 60_000;
    let mut cfg = SystemConfig::default();
    cfg.virt.timeslice_cycles = 20_000;
    let mmm_tp = Workload::Consolidated {
        bench: Benchmark::Apache,
        policy: MixedPolicy::MmmTp,
    };
    for w in [mmm_tp, Workload::ReunionDmr(Benchmark::Oltp)] {
        let mut unobserved = None;
        for &name in std::iter::once(&"none").chain(handles) {
            let obs = bundle(name);
            let mut sys = System::new(&cfg, w, 5).unwrap();
            sys.attach(obs.clone());
            let mut r = sys.run_measured(WARMUP, MEASURE);
            let at = format!("{name} on {}", w.name());

            match r.profile.take() {
                Some(prof) => {
                    assert!(obs.profiler.is_on(), "{at}: no profile without a profiler");
                    let nanos_sum: u64 = prof.phase_nanos.iter().map(|&(_, n)| n).sum();
                    assert_eq!(nanos_sum, prof.total_nanos, "{at}: phases tile the window");
                    assert!(
                        prof.total_nanos > 0,
                        "{at}: a measured window took host time"
                    );
                    assert_eq!(prof.advanced_cycles, MEASURE, "{at}: every cycle accounted");
                    if name == "all" && w == mmm_tp {
                        for phase in [ProfPhase::Pair, ProfPhase::Mem, ProfPhase::OpGen] {
                            let label = phase.label();
                            let nanos = prof.phase_nanos.iter().find(|(l, _)| *l == label);
                            assert!(
                                nanos.is_some_and(|&(_, n)| n > 0),
                                "{at}: no {label} time: the profiler missed a component"
                            );
                        }
                    }
                }
                None => assert!(!obs.profiler.is_on(), "{at}: profiler attached, no profile"),
            }
            assert_eq!(
                r.series.take().is_some(),
                obs.sampler.is_on(),
                "{at}: series"
            );
            assert_eq!(
                r.forensics.take().is_some(),
                obs.forensics.is_on(),
                "{at}: forensics"
            );
            assert_eq!(
                obs.tracer.total_recorded() > 0,
                obs.tracer.is_on(),
                "{at}: trace events"
            );

            r.wall_seconds = 0.0;
            let measured = (
                r.total_user_commits(),
                r.cores.si_stall_cycles,
                r.mem.c2c_transfers,
                r.pairs.ops_compared,
                r.to_json(),
            );
            match &unobserved {
                None => unobserved = Some(measured),
                Some(want) => assert!(*want == measured, "{at}: altered simulated timing"),
            }
        }
    }
}
