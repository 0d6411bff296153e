//! Characterization tests for the `mmm-inspect` diff engine: for every
//! mode (report, metrics series, campaign, profile, faults) and a few
//! flag combinations, pin the exit code and the exact `--json`
//! verdict on small fixtures under `tests/data/inspect/`.
//!
//! Each mode has three fixtures: `*_a` (the baseline), `*_b` (the
//! same run with metrics moved past the mode's default threshold) and
//! `*_c` (a run whose identity block differs). Exit codes: 0 — no
//! gated metric crossed the threshold; 1 — at least one did; 2 —
//! unusable input or identity mismatch, with nothing on stdout.

use std::path::Path;
use std::process::Command;

/// Runs `mmm-inspect` from the fixture directory (so the file names
/// echoed in the verdict stay relative) and returns `(exit, stdout)`.
fn inspect(args: &[&str]) -> (i32, String) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/inspect");
    let out = Command::new(env!("CARGO_BIN_EXE_mmm-inspect"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("mmm-inspect runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

fn check(args: &[&str], exit: i32, stdout: &str) {
    let (code, out) = inspect(args);
    assert_eq!(out.trim_end(), stdout, "stdout of mmm-inspect {args:?}");
    assert_eq!(code, exit, "exit code of mmm-inspect {args:?}");
}

#[test]
fn report_mode() {
    check(
        &["report_a.jsonl", "report_a.jsonl", "--json"],
        0,
        r#"{"a":"report_a.jsonl","b":"report_a.jsonl","kind":"report","threshold":0.15,"direction":"both","compared":34,"skipped_absent":0,"failed":0,"metrics":[]}"#,
    );
    check(
        &["report_a.jsonl", "report_b.jsonl", "--json"],
        1,
        r##"{"a":"report_a.jsonl","b":"report_b.jsonl","kind":"report","threshold":0.15,"direction":"both","compared":34,"skipped_absent":0,"failed":1,"metrics":[{"name":"#1.core.ipc_user","a":0.56,"b":0.57,"rel":0.017857142857142672,"fail":false},{"name":"#1.mem.l2_misses","a":310,"b":420,"rel":0.3548387096774194,"fail":true}]}"##,
    );
    check(&["report_a.jsonl", "report_c.jsonl", "--json"], 2, "");
    check(
        &["report_a.jsonl", "report_c.jsonl", "--force", "--json"],
        0,
        r#"{"a":"report_a.jsonl","b":"report_c.jsonl","kind":"report","threshold":0.15,"direction":"both","compared":34,"skipped_absent":0,"failed":0,"metrics":[]}"#,
    );
}

#[test]
fn report_mode_host_metrics_need_only() {
    // Host-dependent gauges are left out of the default comparison
    // (above, `run.sim_cycles_per_sec` moves ~100% without failing)
    // and gated only when `--only` names them.
    check(
        &[
            "report_a.jsonl",
            "report_b.jsonl",
            "--only",
            "sim_cycles_per_sec",
            "--direction",
            "down",
            "--json",
        ],
        1,
        r##"{"a":"report_a.jsonl","b":"report_b.jsonl","kind":"report","threshold":0.15,"direction":"down","compared":2,"skipped_absent":0,"failed":1,"metrics":[{"name":"#1.run.sim_cycles_per_sec","a":1624691,"b":1,"rel":-0.9999993844983446,"fail":true}]}"##,
    );
    check(
        &[
            "report_a.jsonl",
            "report_b.jsonl",
            "--only",
            "sim_cycles_per_sec",
            "--direction",
            "up",
            "--json",
        ],
        0,
        r##"{"a":"report_a.jsonl","b":"report_b.jsonl","kind":"report","threshold":0.15,"direction":"up","compared":2,"skipped_absent":0,"failed":0,"metrics":[{"name":"#1.run.sim_cycles_per_sec","a":1624691,"b":1,"rel":-0.9999993844983446,"fail":false}]}"##,
    );
}

#[test]
fn series_mode() {
    check(
        &["series_a.jsonl", "series_a.jsonl", "--json"],
        0,
        r#"{"a":"series_a.jsonl","b":"series_a.jsonl","kind":"metrics-series","threshold":0.15,"direction":"both","compared":5,"skipped_absent":0,"failed":0,"metrics":[]}"#,
    );
    check(
        &["series_a.jsonl", "series_b.jsonl", "--json"],
        1,
        r#"{"a":"series_a.jsonl","b":"series_b.jsonl","kind":"metrics-series","threshold":0.15,"direction":"both","compared":5,"skipped_absent":0,"failed":1,"metrics":[{"name":"core.commits_user","a":3150,"b":3950,"rel":0.25396825396825395,"fail":true}]}"#,
    );
    check(&["series_a.jsonl", "series_c.jsonl", "--json"], 2, "");
}

#[test]
fn campaign_mode() {
    check(
        &["campaign", "campaign_a.json", "campaign_a.json", "--json"],
        0,
        r#"{"a":"campaign_a.json","b":"campaign_a.json","kind":"campaign","threshold":0,"direction":"both","compared":14,"skipped_absent":0,"failed":0,"metrics":[]}"#,
    );
    check(
        &["campaign", "campaign_a.json", "campaign_b.json", "--json"],
        1,
        r#"{"a":"campaign_a.json","b":"campaign_b.json","kind":"campaign","threshold":0,"direction":"both","compared":15,"skipped_absent":0,"failed":2,"metrics":[{"name":"cell1.pareto","a":0,"b":1,"rel":null,"fail":true},{"name":"merged.pair.fingerprint_lag.m2","a":12.5,"b":12.75,"rel":0.02,"fail":true}]}"#,
    );
    check(
        &["campaign", "campaign_a.json", "campaign_c.json", "--json"],
        2,
        "",
    );
    check(
        &[
            "campaign",
            "campaign_a.json",
            "campaign_b.json",
            "--only",
            "cell",
            "--threshold",
            "0.5",
            "--json",
        ],
        1,
        r#"{"a":"campaign_a.json","b":"campaign_b.json","kind":"campaign","threshold":0.5,"direction":"both","compared":8,"skipped_absent":0,"failed":1,"metrics":[{"name":"cell1.pareto","a":0,"b":1,"rel":null,"fail":true}]}"#,
    );
}

#[test]
fn profile_mode() {
    check(
        &["profile", "profile_a.json", "profile_a.json", "--json"],
        0,
        r#"{"a":"profile_a.json","b":"profile_a.json","kind":"profile","threshold":5,"direction":"both","compared":14,"skipped_absent":0,"failed":0,"metrics":[]}"#,
    );
    // Phase shares gate on points; `wheel.*` rows move but never gate.
    check(
        &["profile", "profile_a.json", "profile_b.json", "--json"],
        1,
        r#"{"a":"profile_a.json","b":"profile_b.json","kind":"profile","threshold":5,"direction":"both","compared":14,"skipped_absent":0,"failed":2,"metrics":[{"name":"core_dispatch_commit","a":44,"b":51.5,"rel":7.5,"fail":true},{"name":"core_loop_bookkeeping","a":15,"b":13.5,"rel":-1.5,"fail":false},{"name":"mem_access","a":18,"b":12,"rel":-6,"fail":true},{"name":"wheel.skip_efficiency","a":0.6,"b":0.9,"rel":0.30000000000000004,"fail":false},{"name":"wheel.skipped_cycles","a":6000,"b":9000,"rel":3000,"fail":false}]}"#,
    );
    check(
        &[
            "profile",
            "profile_a.json",
            "profile_b.json",
            "--direction",
            "down",
            "--json",
        ],
        1,
        r#"{"a":"profile_a.json","b":"profile_b.json","kind":"profile","threshold":5,"direction":"down","compared":14,"skipped_absent":0,"failed":1,"metrics":[{"name":"core_dispatch_commit","a":44,"b":51.5,"rel":7.5,"fail":false},{"name":"core_loop_bookkeeping","a":15,"b":13.5,"rel":-1.5,"fail":false},{"name":"mem_access","a":18,"b":12,"rel":-6,"fail":true},{"name":"wheel.skip_efficiency","a":0.6,"b":0.9,"rel":0.30000000000000004,"fail":false},{"name":"wheel.skipped_cycles","a":6000,"b":9000,"rel":3000,"fail":false}]}"#,
    );
    check(
        &["profile", "profile_a.json", "profile_c.json", "--json"],
        2,
        "",
    );
}

#[test]
fn faults_mode() {
    check(
        &["faults", "faults_a.jsonl", "faults_a.jsonl", "--json"],
        0,
        r#"{"a":"faults_a.jsonl","b":"faults_a.jsonl","kind":"faults","threshold":0.05,"direction":"both","compared":19,"skipped_absent":0,"failed":0,"metrics":[]}"#,
    );
    // Outcome shares gate on points; counts and latencies never gate.
    check(
        &["faults", "faults_a.jsonl", "faults_b.jsonl", "--json"],
        1,
        r#"{"a":"faults_a.jsonl","b":"faults_b.jsonl","kind":"faults","threshold":0.05,"direction":"both","compared":19,"skipped_absent":0,"failed":2,"metrics":[{"name":"count.tlb_permission.detected_by_pab","a":4,"b":2,"rel":-2,"fail":false},{"name":"count.tlb_permission.escaped","a":2,"b":4,"rel":2,"fail":false},{"name":"share.tlb_permission.detected_by_pab","a":0.6666666666666666,"b":0.3333333333333333,"rel":-0.3333333333333333,"fail":true},{"name":"share.tlb_permission.escaped","a":0.3333333333333333,"b":0.6666666666666666,"rel":0.3333333333333333,"fail":true}]}"#,
    );
    check(
        &[
            "faults",
            "faults_a.jsonl",
            "faults_b.jsonl",
            "--threshold",
            "0.5",
            "--json",
        ],
        0,
        r#"{"a":"faults_a.jsonl","b":"faults_b.jsonl","kind":"faults","threshold":0.5,"direction":"both","compared":19,"skipped_absent":0,"failed":0,"metrics":[{"name":"count.tlb_permission.detected_by_pab","a":4,"b":2,"rel":-2,"fail":false},{"name":"count.tlb_permission.escaped","a":2,"b":4,"rel":2,"fail":false},{"name":"share.tlb_permission.detected_by_pab","a":0.6666666666666666,"b":0.3333333333333333,"rel":-0.3333333333333333,"fail":false},{"name":"share.tlb_permission.escaped","a":0.3333333333333333,"b":0.6666666666666666,"rel":0.3333333333333333,"fail":false}]}"#,
    );
    check(
        &["faults", "faults_a.jsonl", "faults_c.jsonl", "--json"],
        2,
        "",
    );
}

#[test]
fn unusable_input_exits_2() {
    // Mixed export kinds, a missing operand, and an unknown flag.
    check(&["report_a.jsonl", "series_a.jsonl", "--json"], 2, "");
    check(&["report_a.jsonl", "--json"], 2, "");
    check(&["report_a.jsonl", "report_a.jsonl", "--bogus"], 2, "");
}
