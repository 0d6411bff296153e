//! Run-export diff tool and regression gate.
//!
//! `mmm-inspect` loads two run exports of the same kind, flattens each
//! into rows of `(metric, value, gate)`, and diffs them:
//!
//! ```text
//! mmm-inspect A B [--threshold 0.15] [--only SUBSTR]...
//!             [--direction both|down|up] [--json] [--force]
//! mmm-inspect profile A B [--threshold 5] [...]
//! mmm-inspect campaign A B [--threshold 0] [...]
//! mmm-inspect faults A B [--threshold 0.05] [...]
//! ```
//!
//! | Mode | Files | Gated rows | Default threshold |
//! |---|---|---|---|
//! | (none) | report JSONL (`results/<bin>.jsonl`) or metrics series (`results/<bin>.metrics.jsonl`), detected from the first line | every metric, on its relative change | 0.15 (15%) |
//! | `profile` | `results/<bin>.profile.json` (written under `MMM_PROFILE=1`) | phase shares, on their change in percentage points; `wheel.*` introspection is shown ungated | 5 points |
//! | `campaign` | `aggregate.json` from `mmm-campaign` | per-cell summaries, Pareto membership (0/1) and the merged registry, on their relative change | 0: aggregates are deterministic, so any drift fails |
//! | `faults` | `results/<bin>.faults.jsonl` (written under `MMM_FORENSICS=1`) | per-site outcome shares, on their change in points; counts and detection-latency percentiles are shown ungated | 0.05 |
//!
//! Every row carries one of three gates: *relative* (`(b - a) / a`
//! against the threshold), *points* (`b - a` against the threshold) or
//! *ungated* (`b - a` shown, never failing). Metrics present in only
//! one file are skipped, not compared against zero, and counted in the
//! trailing `compared N metrics, skipped M absent-in-one-side` line, so
//! a diff of disjoint files reports itself instead of passing
//! vacuously.
//!
//! The two files must describe comparable runs: the identity block
//! (config, benchmark, scheduler, thread count and cycles for reports;
//! the campaign name, manifest hash and completion for campaigns; ...)
//! must match or the tool refuses with exit code 2 (`--force` compares
//! anyway). Host-dependent metrics (wall seconds, cycles/sec,
//! timestamp, host) are left out unless `--only` names them; `--only`
//! restricts the comparison to metrics containing a given substring.
//!
//! `--direction down` fails only on decreases, `up` only on increases
//! (`both`, the default, gates the absolute change). Exit codes: 0 —
//! no gated metric crossed the threshold; 1 — at least one did; 2 —
//! unusable input or identity mismatch.

use std::collections::BTreeMap;
use std::process::ExitCode;

use mmm_core::report::print_table;
use mmm_trace::Json;

/// Which way a change must point to trip the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Gate on the absolute change.
    Both,
    /// Gate on decreases only (e.g. throughput regressions).
    Down,
    /// Gate on increases only (e.g. latency regressions).
    Up,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::Both => "both",
            Direction::Down => "down",
            Direction::Up => "up",
        }
    }

    fn crosses(self, delta: f64, threshold: f64) -> bool {
        match self {
            Direction::Both => delta.abs() > threshold,
            Direction::Down => delta < -threshold,
            Direction::Up => delta > threshold,
        }
    }
}

/// The kind of export a file holds; `profile`, `campaign` and `faults`
/// are named on the command line, the other two are detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Per-seed `SystemReport` lines (`results/<bin>.jsonl`).
    Report,
    /// A sampled metrics time-series (`results/<bin>.metrics.jsonl`).
    Series,
    /// Self-profiler phase shares (`results/<bin>.profile.json`).
    Profile,
    /// A campaign aggregate (`aggregate.json`).
    Campaign,
    /// A fault-forensics export (`results/<bin>.faults.jsonl`).
    Faults,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Report => "report",
            Kind::Series => "metrics-series",
            Kind::Profile => "profile",
            Kind::Campaign => "campaign",
            Kind::Faults => "faults",
        }
    }

    /// Threshold when `--threshold` is not given, in the unit of the
    /// kind's gated rows.
    fn default_threshold(self) -> f64 {
        match self {
            Kind::Report | Kind::Series => 0.15,
            Kind::Profile => 5.0,
            Kind::Campaign => 0.0,
            Kind::Faults => 0.05,
        }
    }

    /// Whether a metric that is zero in both files drops out of the
    /// comparison. Fault rows keep it: a zero detection latency on
    /// both sides is a compared, unmoved row.
    fn drops_zero_pairs(self) -> bool {
        self != Kind::Faults
    }
}

/// How a row's change is judged against the threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Gate {
    /// Relative change `(b - a) / a`; ±inf when `a` is 0.
    Relative,
    /// Absolute change `b - a`, in the metric's own points.
    Points,
    /// Absolute change `b - a`, shown but never gated.
    Ungated,
}

/// Parsed command line.
struct Options {
    /// Baseline export path.
    a: String,
    /// Candidate export path.
    b: String,
    /// Named mode; `None` detects report vs metrics series.
    mode: Option<Kind>,
    /// `--threshold`, when given (else the kind's default).
    threshold: Option<f64>,
    /// Substring filters; empty means "every default metric".
    only: Vec<String>,
    /// Gated direction.
    direction: Direction,
    /// Emit a JSON verdict instead of tables.
    json: bool,
    /// Compare even when the identity blocks differ.
    force: bool,
}

fn usage() -> String {
    "usage: mmm-inspect [profile|campaign|faults] <A> <B> [--threshold F] [--only SUBSTR]... \
     [--direction both|down|up] [--json] [--force]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut paths = Vec::new();
    let mut opts = Options {
        a: String::new(),
        b: String::new(),
        mode: None,
        threshold: None,
        only: Vec::new(),
        direction: Direction::Both,
        json: false,
        force: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--threshold" => {
                let v = value("--threshold")?;
                opts.threshold = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| format!("bad threshold {v:?}"))?,
                );
            }
            "--only" => opts.only.push(value("--only")?),
            "--direction" => {
                let v = value("--direction")?;
                opts.direction = match v.as_str() {
                    "both" => Direction::Both,
                    "down" => Direction::Down,
                    "up" => Direction::Up,
                    _ => return Err(format!("bad direction {v:?} (both|down|up)")),
                };
            }
            "--json" => opts.json = true,
            "--force" => opts.force = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}\n{}", usage()))
            }
            mode @ ("profile" | "campaign" | "faults")
                if paths.is_empty() && opts.mode.is_none() =>
            {
                opts.mode = Some(match mode {
                    "profile" => Kind::Profile,
                    "campaign" => Kind::Campaign,
                    _ => Kind::Faults,
                });
            }
            other => paths.push(other.to_string()),
        }
    }
    let [a, b] = <[String; 2]>::try_from(paths).map_err(|_| usage())?;
    opts.a = a;
    opts.b = b;
    Ok(opts)
}

/// Flattened metrics of one export: name -> (value, gate).
type Rows = BTreeMap<String, (f64, Gate)>;

/// One loaded export: its kind, the identity block that must match for
/// two files to be comparable, and its rows.
struct RunFile {
    kind: Kind,
    identity: Vec<(String, String)>,
    rows: Rows,
}

fn ident_str(v: Option<&Json>) -> String {
    match v {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => "<missing>".to_string(),
    }
}

/// The identity block: `keys` read from `doc`, each prefixed.
fn identity_of(doc: &Json, prefix: &str, keys: &[&str]) -> Vec<(String, String)> {
    keys.iter()
        .map(|k| (format!("{prefix}{k}"), ident_str(doc.get(k))))
        .collect()
}

/// Every numeric member of `doc[group]`, as `(name, value)`.
fn numbers<'a>(doc: &'a Json, group: &str) -> impl Iterator<Item = (&'a String, f64)> {
    doc.get(group)
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, v)| Some((name, v.as_f64()?)))
}

/// Parses every non-blank line of `text` as one JSON document.
fn parse_lines(path: &str, text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn load(path: &str, mode: Option<Kind>) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if mode == Some(Kind::Campaign) {
        let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
        return campaign_file(path, &doc);
    }
    let lines = parse_lines(path, &text)?;
    let first = lines.first().ok_or_else(|| format!("{path}: empty file"))?;
    match mode {
        Some(Kind::Profile) => profile_file(path, first),
        Some(Kind::Faults) => faults_file(path, &lines),
        _ if first.get("interval").is_some() && first.get("samples").is_some() => {
            series_file(path, &lines)
        }
        _ if first.get("metrics").is_some() => report_file(path, &lines),
        _ => Err(format!("{path}: not a recognised run export")),
    }
}

/// Per-seed report lines: counters and gauges, histogram and stat
/// summaries, and per-VCPU commit counts, all gated relatively. With
/// several lines, each metric is prefixed `#<line>.`.
fn report_file(path: &str, lines: &[Json]) -> Result<RunFile, String> {
    let mut identity = Vec::new();
    let mut rows = Rows::new();
    for (i, line) in lines.iter().enumerate() {
        let prefix = if lines.len() > 1 {
            format!("#{i}.")
        } else {
            String::new()
        };
        let mut put =
            |name: String, v: f64| rows.insert(format!("{prefix}{name}"), (v, Gate::Relative));
        identity.extend(identity_of(
            line,
            &prefix,
            &["config", "benchmark", "scheduler", "threads", "cycles"],
        ));
        for v in line.get("vcpus").and_then(Json::as_arr).unwrap_or(&[]) {
            let id = v.get("vcpu").and_then(Json::as_u64).unwrap_or(0);
            for field in ["user_commits", "os_commits", "unprotected_commits"] {
                if let Some(n) = v.get(field).and_then(Json::as_f64) {
                    put(format!("vcpu{id}.{field}"), n);
                }
            }
        }
        let m = line
            .get("metrics")
            .ok_or_else(|| format!("{path}: report line {i} has no metrics"))?;
        for group in ["counters", "gauges"] {
            for (name, n) in numbers(m, group) {
                put(name.clone(), n);
            }
        }
        for (group, fields) in [
            ("histograms", &["count", "mean", "max", "p50", "p99"][..]),
            ("stats", &["count", "mean", "stddev", "ci95"][..]),
        ] {
            for (name, h) in m.get(group).and_then(Json::as_obj).unwrap_or(&[]) {
                for field in fields {
                    if let Some(n) = h.get(field).and_then(Json::as_f64) {
                        put(format!("{name}.{field}"), n);
                    }
                }
            }
        }
    }
    Ok(RunFile {
        kind: Kind::Report,
        identity,
        rows,
    })
}

/// A time-series flattened to per-metric aggregates, gated relatively:
/// counters sum their per-interval deltas (= the cumulative total),
/// gauges keep their last value, histograms expose the total
/// observation count and the overall max.
fn series_file(path: &str, lines: &[Json]) -> Result<RunFile, String> {
    let identity = identity_of(
        &lines[0],
        "",
        &["interval", "config", "benchmark", "samples"],
    );
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for (i, sample) in lines[1..].iter().enumerate() {
        if sample.get("at").is_none() {
            return Err(format!("{path}: sample line {i} has no \"at\""));
        }
        for (name, n) in numbers(sample, "counters") {
            *totals.entry(name.clone()).or_insert(0.0) += n;
        }
        for (name, n) in numbers(sample, "gauges") {
            totals.insert(name.clone(), n);
        }
        for (name, h) in sample
            .get("histograms")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
        {
            if let Some(c) = h.get("count").and_then(Json::as_f64) {
                *totals.entry(format!("{name}.count")).or_insert(0.0) += c;
            }
            if let Some(mx) = h.get("max").and_then(Json::as_f64) {
                let e = totals.entry(format!("{name}.max")).or_insert(0.0);
                *e = e.max(mx);
            }
        }
    }
    Ok(RunFile {
        kind: Kind::Series,
        identity,
        rows: totals
            .into_iter()
            .map(|(k, v)| (k, (v, Gate::Relative)))
            .collect(),
    })
}

/// A self-profiler export (`results/<bin>.profile.json`: the run's
/// config and benchmark plus a `profile` section). Phase shares gate
/// on their point change; the wheel introspection numbers ride along
/// ungated, prefixed `wheel.`.
fn profile_file(path: &str, doc: &Json) -> Result<RunFile, String> {
    let profile = doc.get("profile").ok_or_else(|| {
        format!("{path}: no `profile` section (export a --json bin under MMM_PROFILE=1)")
    })?;
    if profile.get("phase_shares").and_then(Json::as_obj).is_none() {
        return Err(format!("{path}: profile has no phase_shares object"));
    }
    let mut rows: Rows = numbers(profile, "phase_shares")
        .map(|(name, n)| (name.clone(), (n, Gate::Points)))
        .collect();
    if let Some(wheel) = profile.get("wheel") {
        let scalars = [
            "skip_efficiency",
            "ticks",
            "advanced_cycles",
            "skipped_cycles",
        ];
        for key in scalars {
            if let Some(n) = wheel.get(key).and_then(Json::as_f64) {
                rows.insert(format!("wheel.{key}"), (n, Gate::Ungated));
            }
        }
        for (name, n) in numbers(wheel, "wake_hits") {
            rows.insert(format!("wheel.wake_hits.{name}"), (n, Gate::Ungated));
        }
    }
    Ok(RunFile {
        kind: Kind::Profile,
        identity: identity_of(doc, "", &["config", "benchmark"]),
        rows,
    })
}

/// A campaign `aggregate.json`, gated relatively. The identity is the
/// sweep itself — campaign name, manifest hash, and completion state —
/// so partial and complete aggregates never compare silently. The rows
/// are per-cell summaries (`cell<id>.throughput`, ...), Pareto
/// membership as 0/1, and the lossless merged registry (counters,
/// gauges, histogram sum/max/count, stat n/mean/m2).
fn campaign_file(path: &str, doc: &Json) -> Result<RunFile, String> {
    if doc.get("kind").and_then(Json::as_str) != Some("mmm-campaign-aggregate") {
        return Err(format!(
            "{path}: not a campaign aggregate (expected kind \"mmm-campaign-aggregate\")"
        ));
    }
    let mut totals = BTreeMap::new();
    for cell in doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = cell.get("id").and_then(Json::as_u64).unwrap_or(0);
        for (name, n) in numbers(cell, "summary") {
            totals.insert(format!("cell{id}.{name}"), n);
        }
        if let Some(Json::Bool(p)) = cell.get("pareto") {
            totals.insert(format!("cell{id}.pareto"), if *p { 1.0 } else { 0.0 });
        }
    }
    let merged = doc
        .get("merged_metrics")
        .ok_or_else(|| format!("{path}: aggregate has no merged_metrics"))?;
    for group in ["counters", "gauges"] {
        for (name, n) in numbers(merged, group) {
            totals.insert(format!("merged.{name}"), n);
        }
    }
    for (name, h) in merged
        .get("histograms")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        // Lossless form: sum is a decimal string (u128), buckets carry
        // the counts.
        if let Some(sum) = h
            .get("sum")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<f64>().ok())
        {
            totals.insert(format!("merged.{name}.sum"), sum);
        }
        if let Some(mx) = h.get("max").and_then(Json::as_f64) {
            totals.insert(format!("merged.{name}.max"), mx);
        }
        let count: f64 = h
            .get("buckets")
            .and_then(Json::as_arr)
            .map(|b| {
                b.iter()
                    .filter_map(|pair| pair.as_arr()?.get(1)?.as_f64())
                    .sum()
            })
            .unwrap_or(0.0);
        totals.insert(format!("merged.{name}.count"), count);
    }
    for (name, s) in merged.get("stats").and_then(Json::as_obj).unwrap_or(&[]) {
        for field in ["n", "mean", "m2"] {
            if let Some(n) = s.get(field).and_then(Json::as_f64) {
                totals.insert(format!("merged.{name}.{field}"), n);
            }
        }
    }
    Ok(RunFile {
        kind: Kind::Campaign,
        identity: identity_of(
            doc,
            "",
            &[
                "campaign",
                "manifest_hash",
                "cells_total",
                "cells_done",
                "complete",
            ],
        ),
        rows: totals
            .into_iter()
            .map(|(k, v)| (k, (v, Gate::Relative)))
            .collect(),
    })
}

/// A fault-forensics export. Header lines (`kind: "mmm-faults-run"`)
/// establish the identity: run count plus the distinct
/// config/benchmark/scheduler values. Record lines (`kind: "fault"`)
/// flatten into three row families:
///
/// - `count.<site>.<verdict>` — raw record counts (ungated; they scale
///   with run length);
/// - `share.<site>.<verdict>` — the fraction of that site's records
///   landing on the verdict (gated on the point change);
/// - `latency.<verdict>.{p50,p99,mean}` — detection latency over the
///   records carrying a non-null latency (ungated; tails are noisy).
fn faults_file(path: &str, lines: &[Json]) -> Result<RunFile, String> {
    let mut runs = 0u64;
    let mut idents: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut outcomes: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut latencies: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        let field = |key: &str| {
            line.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: line {}: fault record without {key}", i + 1))
        };
        match line.get("kind").and_then(Json::as_str) {
            Some("mmm-faults-run") => {
                runs += 1;
                for key in ["config", "benchmark", "scheduler"] {
                    let v = ident_str(line.get(key));
                    let seen = idents.entry(key).or_default();
                    if !seen.contains(&v) {
                        seen.push(v);
                    }
                }
            }
            Some("fault") => {
                let (site, verdict) = (field("site")?, field("verdict")?);
                if let Some(l) = line.get("latency").and_then(Json::as_f64) {
                    latencies.entry(verdict.clone()).or_default().push(l);
                }
                *outcomes.entry((site, verdict)).or_insert(0) += 1;
            }
            _ => {
                return Err(format!(
                    "{path}: line {}: not a forensics line (expected kind \
                     \"mmm-faults-run\" or \"fault\")",
                    i + 1
                ))
            }
        }
    }
    if runs == 0 {
        return Err(format!(
            "{path}: no forensics headers (run the bench under MMM_FORENSICS=1)"
        ));
    }
    let mut identity = vec![("runs".to_string(), runs.to_string())];
    for (key, mut values) in idents {
        values.sort();
        identity.push((key.to_string(), values.join(",")));
    }
    let mut site_totals: BTreeMap<&String, u64> = BTreeMap::new();
    for ((site, _), n) in &outcomes {
        *site_totals.entry(site).or_insert(0) += n;
    }
    let mut rows = Rows::new();
    for ((site, verdict), n) in &outcomes {
        let share = *n as f64 / site_totals[site] as f64;
        rows.insert(
            format!("count.{site}.{verdict}"),
            (*n as f64, Gate::Ungated),
        );
        rows.insert(format!("share.{site}.{verdict}"), (share, Gate::Points));
    }
    for (verdict, mut vals) in latencies {
        vals.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |p: f64| vals[(p * (vals.len() - 1) as f64).round() as usize];
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        for (stat, v) in [("p50", pct(0.50)), ("p99", pct(0.99)), ("mean", mean)] {
            rows.insert(format!("latency.{verdict}.{stat}"), (v, Gate::Ungated));
        }
    }
    Ok(RunFile {
        kind: Kind::Faults,
        identity,
        rows,
    })
}

/// Host-dependent metrics are noise, not regressions; they only enter
/// the comparison when `--only` names them explicitly.
fn host_dependent(name: &str) -> bool {
    ["wall_seconds", "sim_cycles_per_sec", "timestamp", "host"]
        .iter()
        .any(|s| name.contains(s))
}

/// One compared metric.
struct Row {
    name: String,
    a: f64,
    b: f64,
    gate: Gate,
    /// The change the gate judges: relative for [`Gate::Relative`],
    /// `b - a` otherwise.
    delta: f64,
    fail: bool,
}

/// The one diff engine: every metric named in either file, filtered by
/// `--only` (or stripped of host-dependent metrics without it), judged
/// by its row's gate. Returns the compared rows and the count of
/// metrics skipped for being absent in one file.
fn compare(a: &RunFile, b: &RunFile, opts: &Options, threshold: f64) -> (Vec<Row>, usize) {
    let mut names: Vec<&String> = a.rows.keys().chain(b.rows.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows = Vec::new();
    let mut skipped = 0;
    for name in names {
        let wanted = if opts.only.is_empty() {
            !host_dependent(name)
        } else {
            opts.only.iter().any(|s| name.contains(s.as_str()))
        };
        if !wanted {
            continue;
        }
        // A metric present in only one file is *skipped*, not compared
        // against zero: schema drift between exports should surface as
        // a skip count in the trailing summary, not as a ±inf verdict
        // — and never pass silently as a vacuous diff.
        let (&(va, gate), &(vb, _)) = match (a.rows.get(name), b.rows.get(name)) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => {
                skipped += 1;
                continue;
            }
        };
        if a.kind.drops_zero_pairs() && va == 0.0 && vb == 0.0 {
            continue;
        }
        let delta = match gate {
            Gate::Relative if va != 0.0 => (vb - va) / va,
            Gate::Relative => f64::INFINITY * vb.signum(),
            Gate::Points | Gate::Ungated => vb - va,
        };
        rows.push(Row {
            name: name.clone(),
            a: va,
            b: vb,
            gate,
            delta,
            fail: gate != Gate::Ungated && opts.direction.crosses(delta, threshold),
        });
    }
    (rows, skipped)
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// The change column, in the unit its gate judges.
fn fmt_delta(r: &Row) -> String {
    match r.gate {
        Gate::Relative if r.delta.is_infinite() => {
            if r.delta > 0.0 { "+inf%" } else { "-inf%" }.to_string()
        }
        Gate::Relative => format!("{:+.2}%", r.delta * 100.0),
        Gate::Points => format!("{:+.4} pt", r.delta),
        Gate::Ungated if r.delta == r.delta.trunc() => format!("{:+}", r.delta as i64),
        Gate::Ungated => format!("{:+.4}", r.delta),
    }
}

fn print_human(rows: &[Row], skipped: usize, opts: &Options, kind: Kind, threshold: f64) {
    let to_cells = |r: &&Row| {
        let verdict = match (r.gate, r.fail) {
            (Gate::Ungated, _) => "-",
            (_, true) => "FAIL",
            (_, false) => "ok",
        };
        vec![
            r.name.clone(),
            fmt_num(r.a),
            fmt_num(r.b),
            fmt_delta(r),
            verdict.to_string(),
        ]
    };
    let header = ["metric", "A", "B", "change", "gate"];
    let failed: Vec<&Row> = rows.iter().filter(|r| r.fail).collect();
    if let Some(first) = failed.first() {
        let limit = match first.gate {
            Gate::Relative => format!("{:.0}%", threshold * 100.0),
            _ => format!("{threshold} points"),
        };
        print_table(
            &format!(
                "Metrics over threshold ({limit}, direction {})",
                opts.direction.name()
            ),
            &header,
            &failed.iter().map(to_cells).collect::<Vec<_>>(),
        );
    }
    // Gated rows first, largest change first within each gate.
    let mut moved: Vec<&Row> = rows.iter().filter(|r| !r.fail && r.delta != 0.0).collect();
    moved.sort_by(|x, y| {
        x.gate.cmp(&y.gate).then(
            y.delta
                .abs()
                .partial_cmp(&x.delta.abs())
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    if !moved.is_empty() {
        let shown = moved.len().min(20);
        print_table(
            &format!(
                "Largest within-threshold changes ({} of {} moved metrics)",
                shown,
                moved.len()
            ),
            &header,
            &moved[..shown].iter().map(to_cells).collect::<Vec<_>>(),
        );
    }
    println!(
        "\nmmm-inspect: {} vs {} ({}): compared {} metrics, \
         skipped {} absent-in-one-side, {} moved, {} over threshold",
        opts.a,
        opts.b,
        kind.name(),
        rows.len(),
        skipped,
        rows.iter().filter(|r| r.delta != 0.0).count(),
        failed.len()
    );
}

fn print_json(rows: &[Row], skipped: usize, opts: &Options, kind: Kind, threshold: f64) {
    let metrics = rows
        .iter()
        .filter(|r| r.fail || r.delta != 0.0)
        .map(|r| {
            Json::obj([
                ("name", Json::str(r.name.clone())),
                ("a", Json::F64(r.a)),
                ("b", Json::F64(r.b)),
                ("rel", Json::F64(r.delta)),
                ("fail", Json::Bool(r.fail)),
            ])
        })
        .collect();
    let out = Json::obj([
        ("a", Json::str(opts.a.clone())),
        ("b", Json::str(opts.b.clone())),
        ("kind", Json::str(kind.name())),
        ("threshold", Json::F64(threshold)),
        ("direction", Json::str(opts.direction.name())),
        ("compared", Json::U64(rows.len() as u64)),
        ("skipped_absent", Json::U64(skipped as u64)),
        (
            "failed",
            Json::U64(rows.iter().filter(|r| r.fail).count() as u64),
        ),
        ("metrics", Json::Arr(metrics)),
    ]);
    println!("{}", out.render());
    // Stdout stays pure JSON; the summary line goes to stderr.
    eprintln!(
        "mmm-inspect: compared {} metrics, skipped {} absent-in-one-side",
        rows.len(),
        skipped
    );
}

fn run(opts: &Options) -> Result<bool, String> {
    let a = load(&opts.a, opts.mode)?;
    let b = load(&opts.b, opts.mode)?;
    if a.kind != b.kind {
        return Err(format!(
            "{} is a {} export but {} is a {} export",
            opts.a,
            a.kind.name(),
            opts.b,
            b.kind.name()
        ));
    }
    if a.identity != b.identity {
        let describe = |f: &RunFile| {
            f.identity
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let msg = format!(
            "runs are not comparable:\n  A: {}\n  B: {}",
            describe(&a),
            describe(&b)
        );
        if !opts.force {
            return Err(format!("{msg}\n(--force compares anyway)"));
        }
        eprintln!("mmm-inspect: {msg}\nmmm-inspect: --force given, comparing anyway");
    }
    let threshold = opts.threshold.unwrap_or(a.kind.default_threshold());
    let (rows, skipped) = compare(&a, &b, opts, threshold);
    if opts.json {
        print_json(&rows, skipped, opts, a.kind, threshold);
    } else {
        print_human(&rows, skipped, opts, a.kind, threshold);
    }
    Ok(rows.iter().any(|r| r.fail))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mmm-inspect: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mmm-inspect: {e}");
            ExitCode::from(2)
        }
    }
}
