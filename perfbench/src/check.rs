//! Output checks: every simulated run must reproduce its recorded
//! report bit for bit.
//!
//! A run's digest is the FNV-1a hash of `SystemReport::to_json()` with
//! `wall_seconds` zeroed (the one host-dependent field `to_json` can
//! carry). `digests.txt` records the digest of every workload for
//! seeds `0..=63`; seed 1 is the default a change is tuned on and seed
//! 7 the held-out seed it is re-checked on. A seed outside the table
//! is checked for agreement between the run's repetitions instead.
//! Every seed is also checked against the structural invariants of its
//! workload (which layers must and must not do work).

use mmm_core::SystemReport;

use crate::sim::MEASURE;

/// The recorded digests, one `workload seed digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The seed a change is tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// A recorded seed not used while tuning (re-check claims on it).
pub const HELD_OUT_SEED: u64 = 7;

/// FNV-1a (64-bit) of `bytes`, as 16 hex digits.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The digest of a report: FNV-1a of its JSON with the wall time
/// zeroed.
pub fn digest(report: &SystemReport) -> String {
    let mut r = report.clone();
    r.wall_seconds = 0.0;
    fnv1a(r.to_json().as_bytes())
}

/// The recorded digest of `(workload, seed)`, if the table has one.
pub fn recorded(workload: &str, seed: u64) -> Option<&'static str> {
    RECORDED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?.parse::<u64>().ok()?, f.next()?))
        })
        .find(|&(w, s, _)| w == workload && s == seed)
        .map(|(_, _, d)| d)
}

/// Structural invariants of a workload's report; returns the first
/// one violated.
pub fn invariants(workload: &str, r: &SystemReport) -> Result<(), String> {
    let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    let enters = r.transitions.enter.count();
    let leaves = r.transitions.leave.count();
    ensure(
        r.cycles == MEASURE,
        "measured cycles differ from the window",
    )?;
    ensure(
        crate::sim::committed_insts(r) > 0,
        "no instruction committed",
    )?;
    match workload {
        "reunion_oltp" => {
            ensure(r.pairs.ops_compared > 0, "DMR pairs compared no op")?;
            ensure(r.dmr_coverage() == 1.0, "not every commit was redundant")?;
            ensure(
                r.pab.lookups == 0,
                "PAB looked up without a performance VCPU",
            )?;
            ensure(
                enters + leaves == 0,
                "mode transition in a static DMR machine",
            )?;
            ensure(r.faults.injected == 0, "fault injected with injection off")
        }
        "nodmr2x_pmake" => {
            ensure(r.pairs.ops_compared == 0, "DMR pair active without DMR")?;
            ensure(enters + leaves == 0, "mode transition without DMR")?;
            ensure(r.faults.injected == 0, "fault injected with injection off")
        }
        "mmmtp_apache_faults" => {
            ensure(r.pairs.ops_compared > 0, "DMR pairs compared no op")?;
            ensure(enters > 0 && leaves > 0, "no gang switch in the window")?;
            ensure(r.pab.lookups > 0, "PAB never looked up")?;
            ensure(r.faults.injected > 0, "no fault injected")?;
            ensure(
                r.faults.contained() <= r.faults.injected,
                "more faults contained than injected",
            )
        }
        other => Err(format!("unknown workload {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{self, SPECS};

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn table_has_default_and_held_out_seeds() {
        for s in SPECS {
            assert!(recorded(s.name, DEFAULT_SEED).is_some(), "{}", s.name);
            assert!(recorded(s.name, HELD_OUT_SEED).is_some(), "{}", s.name);
        }
        assert_eq!(recorded("reunion_oltp", 1 << 40), None);
        assert_eq!(recorded("no_such_workload", DEFAULT_SEED), None);
    }

    /// Two runs in one process give the same digest, equal to the
    /// recorded one, and chunking the window into `INTERVAL` calls
    /// leaves the report identical to the harness's single
    /// `run_measured`.
    #[test]
    fn digest_is_stable_and_matches_run_measured() {
        for s in SPECS {
            let a = digest(&sim::run(&s, DEFAULT_SEED).unwrap().report);
            let b = digest(&sim::run(&s, DEFAULT_SEED).unwrap().report);
            assert_eq!(a, b, "{}: two in-process runs differ", s.name);
            assert_eq!(
                Some(a.as_str()),
                recorded(s.name, DEFAULT_SEED),
                "{}",
                s.name
            );
            let whole = s
                .build(DEFAULT_SEED)
                .unwrap()
                .run_measured(sim::WARMUP, MEASURE);
            assert_eq!(a, digest(&whole), "{}: chunked window differs", s.name);
            invariants(s.name, &whole).unwrap();
        }
    }
}
