#!/usr/bin/env python3
"""Validate the harness bins' machine-readable exports.

Four modes:

* ``validate_trace.py`` (no args) — reads JSONL report lines from
  stdin (the output of ``<bin> --json``) and checks every line is a
  well-formed report object with the expected top-level keys and a
  sane metrics registry.
* ``validate_trace.py trace <file>`` — checks a ``*.trace.json`` file
  is a well-formed Chrome trace-event document that Perfetto will
  load: a ``traceEvents`` array whose entries carry the mandatory
  ``ph``/``pid``/``ts`` fields, with at least one per-core mode slice,
  and whose counter-track events (``"ph":"C"``) are well-formed — a
  name, a non-negative integer ``ts`` monotone per counter name, and a
  numeric ``args.value``.
* ``validate_trace.py metrics <file>`` — checks a ``*.metrics.jsonl``
  flight-recorder export: a header line with a positive integer
  ``interval`` and a ``samples`` count matching the body, then sample
  lines with strictly increasing ``at``, non-negative integer counter
  deltas, and well-formed histogram deltas (``count``/``mean``/
  ``max``/``buckets`` with ``[index, count]`` pairs).
* ``validate_trace.py profile <file>`` — checks a ``*.profile.json``
  self-profiler export (``MMM_PROFILE=1``): non-empty ``config`` and
  ``benchmark`` strings and a ``profile`` section whose phase shares
  are finite, non-negative, and sum to 100 ± 0.5 (unless the window is
  empty), with ``op_gen`` under 10% and a wheel block whose
  ``skip_efficiency`` lies in [0, 1].

Exits non-zero (failing CI) on any malformed input. Uses only the
Python standard library.
"""

import json
import math
import sys

REPORT_KEYS = {"config", "benchmark", "cycles", "vcpus", "metrics"}
METRIC_SECTIONS = {"counters", "gauges", "histograms", "stats"}


def fail(msg: str) -> None:
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_report_line(n: int, line: str) -> None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"line {n}: not valid JSON: {e}")
    if not isinstance(obj, dict):
        fail(f"line {n}: expected an object, got {type(obj).__name__}")
    missing = REPORT_KEYS - obj.keys()
    if missing:
        fail(f"line {n}: missing keys {sorted(missing)}")
    if not isinstance(obj["cycles"], int) or obj["cycles"] <= 0:
        fail(f"line {n}: cycles must be a positive integer")
    if not isinstance(obj["vcpus"], list) or not obj["vcpus"]:
        fail(f"line {n}: vcpus must be a non-empty array")
    for v in obj["vcpus"]:
        if not {"vcpu", "vm", "user_commits"} <= v.keys():
            fail(f"line {n}: malformed vcpu entry {v}")
    metrics = obj["metrics"]
    missing = METRIC_SECTIONS - metrics.keys()
    if missing:
        fail(f"line {n}: metrics missing sections {sorted(missing)}")
    counters = metrics["counters"]
    if counters.get("run.cycles") != obj["cycles"]:
        fail(f"line {n}: metrics counter run.cycles disagrees with cycles")
    if any(not isinstance(c, int) or c < 0 for c in counters.values()):
        fail(f"line {n}: counters must be non-negative integers")


def validate_jsonl_stdin() -> None:
    n = 0
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        n += 1
        validate_report_line(n, line)
    if n == 0:
        fail("no report lines on stdin (did the bin run with --json?)")
    print(f"validate_trace: OK: {n} report line(s)")


def validate_trace_file(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
    mode_slices = 0
    counters = 0
    last_counter_ts: dict = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: traceEvents[{i}] is not an object")
        if "ph" not in ev or "pid" not in ev:
            fail(f"{path}: traceEvents[{i}] missing ph/pid")
        if ev["ph"] != "M" and "ts" not in ev:
            fail(f"{path}: traceEvents[{i}] missing ts")
        if ev["ph"] == "X":
            if not isinstance(ev.get("dur"), int) or ev["dur"] < 0:
                fail(f"{path}: traceEvents[{i}] X-slice needs integer dur")
            # Mode slices live on even tids (see mmm-trace's chrome.rs).
            if ev.get("tid", 1) % 2 == 0:
                mode_slices += 1
        if ev["ph"] == "C":
            name = ev.get("name")
            if not isinstance(name, str) or not name:
                fail(f"{path}: traceEvents[{i}] counter needs a name")
            ts = ev.get("ts")
            if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
                fail(f"{path}: traceEvents[{i}] counter needs integer ts >= 0")
            if ts < last_counter_ts.get(name, 0):
                fail(f"{path}: counter {name!r} timestamps go backwards at [{i}]")
            last_counter_ts[name] = ts
            value = ev.get("args", {}).get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(f"{path}: traceEvents[{i}] counter needs numeric args.value")
            counters += 1
    if mode_slices == 0:
        fail(f"{path}: no per-core mode slices found")
    print(
        f"validate_trace: OK: {len(events)} trace events, "
        f"{mode_slices} mode slice(s), {counters} counter event(s)"
    )


def validate_histogram(where: str, name: str, h) -> None:
    if not isinstance(h, dict):
        fail(f"{where}: histogram {name!r} is not an object")
    count = h.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
        fail(f"{where}: histogram {name!r} needs a positive count")
    mean = h.get("mean")
    if not isinstance(mean, (int, float)) or isinstance(mean, bool) or mean < 0:
        fail(f"{where}: histogram {name!r} needs a non-negative mean")
    hmax = h.get("max")
    if not isinstance(hmax, int) or isinstance(hmax, bool) or hmax < 0:
        fail(f"{where}: histogram {name!r} needs a non-negative integer max")
    buckets = h.get("buckets")
    if not isinstance(buckets, list):
        fail(f"{where}: histogram {name!r} needs a buckets array")
    total = 0
    for b in buckets:
        if (
            not isinstance(b, list)
            or len(b) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in b)
            or b[1] <= 0
        ):
            fail(f"{where}: histogram {name!r} bucket {b!r} is not [index, count]")
        total += b[1]
    if total != count:
        fail(f"{where}: histogram {name!r} bucket counts sum {total} != count {count}")


def validate_metrics_file(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            lines = [json.loads(l) for l in f if l.strip()]
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not lines:
        fail(f"{path}: empty file")
    header, samples = lines[0], lines[1:]
    interval = header.get("interval")
    if not isinstance(interval, int) or isinstance(interval, bool) or interval <= 0:
        fail(f"{path}: header needs a positive integer interval")
    for key in ("config", "benchmark"):
        if not isinstance(header.get(key), str) or not header[key]:
            fail(f"{path}: header needs a non-empty {key!r}")
    if header.get("samples") != len(samples):
        fail(f"{path}: header says {header.get('samples')} samples, found {len(samples)}")
    prev_at = -1
    for i, s in enumerate(samples):
        where = f"{path}: sample {i}"
        at = s.get("at")
        if not isinstance(at, int) or isinstance(at, bool) or at < 0:
            fail(f"{where}: needs integer at >= 0")
        if at <= prev_at:
            fail(f"{where}: at={at} does not increase (previous {prev_at})")
        prev_at = at
        counters = s.get("counters")
        if not isinstance(counters, dict):
            fail(f"{where}: needs a counters object")
        for name, v in counters.items():
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                fail(f"{where}: counter {name!r} delta must be a positive integer")
        gauges = s.get("gauges")
        if not isinstance(gauges, dict):
            fail(f"{where}: needs a gauges object")
        for name, v in gauges.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                fail(f"{where}: gauge {name!r} must be numeric")
        histograms = s.get("histograms")
        if not isinstance(histograms, dict):
            fail(f"{where}: needs a histograms object")
        for name, h in histograms.items():
            validate_histogram(where, name, h)
    print(
        f"validate_trace: OK: {path}: {len(samples)} sample(s) "
        f"at interval {interval}"
    )


# Keys the self-profiler's ``to_json`` writes into every ``profile``
# section.
PROFILE_REQUIRED = ("total_nanos", "phase_nanos", "phase_shares", "wheel")


def is_number(v) -> bool:
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(float(v))
    )


def validate_profile_file(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: expected an object, got {type(doc).__name__}")
    for key in ("config", "benchmark"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail(f"{path}: needs a non-empty {key!r}")
    prof = doc.get("profile")
    if not isinstance(prof, dict):
        fail(f"{path}: needs a profile object")
    for key in PROFILE_REQUIRED:
        if key not in prof:
            fail(f"{path}: profile missing key {key!r}")
    total = prof["total_nanos"]
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        fail(f"{path}: profile.total_nanos must be a non-negative integer")
    shares = prof["phase_shares"]
    if not isinstance(shares, dict) or not shares:
        fail(f"{path}: profile.phase_shares must be a non-empty object")
    for name, v in shares.items():
        if not is_number(v) or float(v) < 0.0:
            fail(f"{path}: profile.phase_shares.{name} must be finite and >= 0")
    share_sum = sum(float(v) for v in shares.values())
    if total > 0 and abs(share_sum - 100.0) > 0.5:
        fail(f"{path}: profile.phase_shares sum to {share_sum:.3f}, expected ~100")
    # The table-driven sampler and the batched ring refill took op
    # generation out of the hot loop's profile; keep it out.
    op_gen = float(shares.get("op_gen", 0.0))
    if total > 0 and op_gen >= 10.0:
        fail(f"{path}: profile.phase_shares.op_gen is {op_gen:.1f}%, expected < 10")
    wheel = prof["wheel"]
    if not isinstance(wheel, dict):
        fail(f"{path}: profile.wheel must be an object")
    for key in ("wake_hits", "ticks", "advanced_cycles", "skip_efficiency"):
        if key not in wheel:
            fail(f"{path}: profile.wheel missing key {key!r}")
    eff = wheel["skip_efficiency"]
    if not is_number(eff) or not 0.0 <= float(eff) <= 1.0:
        fail(f"{path}: profile.wheel.skip_efficiency must be in [0, 1], got {eff}")
    print(
        f"validate_trace: OK: {path}: {share_sum:.1f}% phase shares, "
        f"op_gen {op_gen:.1f}%, skip efficiency {float(eff):.3f}"
    )


def main() -> None:
    if len(sys.argv) == 1:
        validate_jsonl_stdin()
    elif len(sys.argv) == 3 and sys.argv[1] == "trace":
        validate_trace_file(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "metrics":
        validate_metrics_file(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "profile":
        validate_profile_file(sys.argv[2])
    else:
        fail(
            f"usage: {sys.argv[0]} [trace <file.trace.json> | "
            "metrics <file.metrics.jsonl> | profile <file.profile.json>]"
        )


if __name__ == "__main__":
    main()
