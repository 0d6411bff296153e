//! Reproducibility: identical seeds give bit-identical experiments for
//! every configuration — the property the whole evaluation methodology
//! rests on.

use mixed_mode_multicore::mmm::{MixedPolicy, System, Workload};
use mixed_mode_multicore::prelude::*;

fn fingerprint(w: Workload, seed: u64) -> (u64, u64, u64, u64, u64) {
    let mut cfg = SystemConfig::default();
    cfg.virt.timeslice_cycles = 120_000;
    let mut sys = System::new(&cfg, w, seed).expect("valid workload");
    let r = sys.run_measured(60_000, 400_000);
    (
        r.total_user_commits(),
        r.vcpus.iter().map(|v| v.os_commits).sum(),
        r.mem.c2c_transfers,
        r.pairs.ops_compared,
        r.transitions.enter.count() + r.transitions.leave.count(),
    )
}

fn all_workloads() -> Vec<Workload> {
    let b = Benchmark::Apache;
    vec![
        Workload::NoDmr2x(b),
        Workload::NoDmr(b),
        Workload::ReunionDmr(b),
        Workload::Consolidated {
            bench: b,
            policy: MixedPolicy::DmrBase,
        },
        Workload::Consolidated {
            bench: b,
            policy: MixedPolicy::MmmIpc,
        },
        Workload::Consolidated {
            bench: b,
            policy: MixedPolicy::MmmTp,
        },
        Workload::SingleOsMixed(b),
    ]
}

#[test]
fn same_seed_is_bit_identical_for_every_configuration() {
    for w in all_workloads() {
        assert_eq!(
            fingerprint(w, 42),
            fingerprint(w, 42),
            "{} must be deterministic",
            w.name()
        );
    }
}

#[test]
fn different_seeds_differ() {
    let w = Workload::ReunionDmr(Benchmark::Apache);
    assert_ne!(fingerprint(w, 1), fingerprint(w, 2));
}

#[test]
fn fault_injection_is_deterministic_too() {
    let run = || {
        let mut cfg = SystemConfig::default();
        cfg.virt.timeslice_cycles = 120_000;
        let mut sys = System::new(
            &cfg,
            Workload::Consolidated {
                bench: Benchmark::Oltp,
                policy: MixedPolicy::MmmTp,
            },
            9,
        )
        .unwrap();
        sys.enable_fault_injection(1e-5, 33);
        let r = sys.run_measured(50_000, 400_000);
        (r.faults, r.total_user_commits())
    };
    assert_eq!(run(), run());
}

/// The report, canonicalized for cross-variant comparison: the
/// wall-clock timing (and the throughput gauge derived from it) is the
/// one host-dependent field, so it is zeroed before rendering.
fn canonical_json(mut r: mixed_mode_multicore::mmm::SystemReport) -> String {
    r.wall_seconds = 0.0;
    r.to_json()
}

/// Reports must be bit-identical no matter how the simulation is
/// hosted: worker-thread count of the experiment driver (`MMM_THREADS`
/// takes any value) and event tracing on or off are observability /
/// throughput knobs, not model inputs. One report per scheduler mode,
/// compared across all variants as rendered JSON.
#[test]
fn report_is_invariant_across_threads_and_tracing() {
    use mixed_mode_multicore::mmm::Experiment;
    use mixed_mode_multicore::trace::{Observers, Tracer};

    let mut e = Experiment::default();
    e.cfg.virt.timeslice_cycles = 120_000;
    e.warmup = 20_000;
    e.measure = 150_000;
    e.seeds = vec![11, 12];
    let modes = all_workloads();

    // Baseline: sequential, untraced.
    let baseline: Vec<Vec<String>> = modes
        .iter()
        .map(|&w| {
            e.seeds
                .iter()
                .map(|&s| canonical_json(e.run_one(w, s).unwrap()))
                .collect()
        })
        .collect();

    // Same jobs through the shared work-queue at different pool sizes.
    for threads in [1, 4] {
        let many = e.run_many_on(&modes, threads).unwrap();
        for (w, (run, expect)) in modes.iter().zip(many.iter().zip(&baseline)) {
            let got: Vec<String> = run
                .reports
                .iter()
                .map(|r| canonical_json(r.clone()))
                .collect();
            assert_eq!(
                &got,
                expect,
                "{} must not depend on thread count ({threads})",
                w.name()
            );
        }
    }

    // Tracing attached: identical reports, merely observed.
    for (w, expect) in modes.iter().zip(&baseline) {
        let mut sys = System::new(&e.cfg, *w, e.seeds[0]).unwrap();
        sys.attach(Observers {
            tracer: Tracer::ring(1 << 12),
            ..Observers::default()
        });
        let r = sys.run_measured(e.warmup, e.measure);
        assert_eq!(
            canonical_json(r),
            expect[0],
            "{} must not depend on tracing",
            w.name()
        );
    }
}

/// The flight recorder is an observability knob with the same
/// contract as tracing: attaching a sampler leaves the report
/// bit-identical, and the recorded time-series itself is invariant
/// across cycle fast-forwarding (skipped spans settle and boundary
/// samples still fire) and across the experiment driver's worker
/// thread count.
#[test]
fn sampled_series_is_invariant_across_skipping_and_threads() {
    use mixed_mode_multicore::mmm::Experiment;

    let mut e = Experiment::default();
    e.cfg.virt.timeslice_cycles = 120_000;
    e.warmup = 20_000;
    e.measure = 150_000;
    e.seeds = vec![7];
    let modes = [
        Workload::ReunionDmr(Benchmark::Apache),
        Workload::Consolidated {
            bench: Benchmark::Apache,
            policy: MixedPolicy::MmmTp,
        },
        Workload::SingleOsMixed(Benchmark::Apache),
    ];
    for w in modes {
        // Baseline: no sampler, skipping on.
        let plain = canonical_json(e.run_one(w, 7).unwrap());

        let mut es = e.clone();
        es.sample_interval = Some(25_000);
        let mut sampled = es.run_one(w, 7).unwrap();
        let series = sampled.series.take().expect("sampler attached");
        assert!(!series.samples.is_empty(), "{}: series recorded", w.name());
        assert_eq!(
            canonical_json(sampled),
            plain,
            "{}: sampling must not change the report",
            w.name()
        );

        // Fast-forwarding off: same report, same series.
        let mut eskip = es.clone();
        eskip.cycle_skipping = false;
        let mut noskip = eskip.run_one(w, 7).unwrap();
        assert_eq!(
            noskip.series.take().as_ref(),
            Some(&series),
            "{}: series must be skip-invariant",
            w.name()
        );
        assert_eq!(
            canonical_json(noskip),
            plain,
            "{}: skip-off must not change the report",
            w.name()
        );

        // Same job through the work-queue at different pool sizes.
        for threads in [1, 4] {
            let run = es.run_many_on(&[w], threads).unwrap().remove(0);
            assert_eq!(
                run.reports[0].series.as_ref(),
                Some(&series),
                "{}: series must not depend on thread count ({threads})",
                w.name()
            );
        }
    }
}

/// The self-profiler has the same contract as tracing and sampling:
/// it reads only the host clock, so reports *and* the sampled metrics
/// series stay bit-identical with the profiler on or off, and across
/// the experiment driver's worker thread count.
#[test]
fn report_and_series_are_invariant_under_profiling() {
    use mixed_mode_multicore::mmm::Experiment;

    let mut e = Experiment::default();
    e.cfg.virt.timeslice_cycles = 120_000;
    e.warmup = 20_000;
    e.measure = 150_000;
    e.seeds = vec![5];
    e.sample_interval = Some(25_000);
    let modes = [
        Workload::ReunionDmr(Benchmark::Apache),
        Workload::Consolidated {
            bench: Benchmark::Apache,
            policy: MixedPolicy::MmmTp,
        },
        Workload::SingleOsMixed(Benchmark::Apache),
    ];
    for w in modes {
        // Baseline: profiler off.
        let mut plain = e.run_one(w, 5).unwrap();
        let series = plain.series.take().expect("sampler attached");
        assert!(plain.profile.is_none(), "{}: profiler off", w.name());
        let plain_json = canonical_json(plain);

        // Profiler on: identical report and series, plus a profile
        // whose phases tile the measured window exactly.
        let mut ep = e.clone();
        ep.profile = true;
        let mut profiled = ep.run_one(w, 5).unwrap();
        let prof = profiled.profile.take().expect("profiler attached");
        assert_eq!(
            profiled.series.take().as_ref(),
            Some(&series),
            "{}: profiling must not change the series",
            w.name()
        );
        assert_eq!(
            canonical_json(profiled),
            plain_json,
            "{}: profiling must not change the report",
            w.name()
        );
        let nanos_sum: u64 = prof.phase_nanos.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            nanos_sum,
            prof.total_nanos,
            "{}: phase shares must sum to 100% of the window",
            w.name()
        );
        assert_eq!(
            prof.advanced_cycles,
            e.measure,
            "{}: the profiler saw every measured cycle",
            w.name()
        );
        assert!(prof.ticks > 0, "{}: executed ticks recorded", w.name());

        // Same profiled job through the work-queue at different pool
        // sizes: still bit-identical to the unprofiled baseline.
        for threads in [1, 4] {
            let run = ep.run_many_on(&[w], threads).unwrap().remove(0);
            let mut r = run.reports[0].clone();
            assert_eq!(
                r.series.take().as_ref(),
                Some(&series),
                "{}: series must not depend on thread count ({threads})",
                w.name()
            );
            assert_eq!(
                canonical_json(r),
                plain_json,
                "{}: profiled report must not depend on thread count ({threads})",
                w.name()
            );
        }
    }
}
