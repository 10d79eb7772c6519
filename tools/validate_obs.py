#!/usr/bin/env python3
"""Validate observability artifacts: Chrome trace JSON and Prometheus text.

Usage:
    tools/validate_obs.py trace FILE   # Chrome trace-event JSON (Perfetto)
    tools/validate_obs.py prom FILE    # Prometheus text exposition format

``trace`` checks what Perfetto / chrome://tracing require to load the file:
a JSON object with a ``traceEvents`` list whose entries carry name/ph/ts
(plus dur for complete events), with numeric timestamps and known phases.

``prom`` checks the text exposition grammar the tree's Registry emits:
HELP/TYPE comment lines, legal metric names, numeric sample values, and —
for histograms — cumulative (monotone non-decreasing) ``le`` buckets whose
``+Inf`` bucket equals ``_count``. Families listed in ``KNOWN_TYPES`` must
carry their known TYPE.

Exit status: 0 valid, 1 invalid (first failure printed), 2 usage/IO error.
"""

import json
import math
import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
KNOWN_PHASES = {"X", "i", "B", "E", "M", "C", "b", "e", "n", "s", "t", "f"}
# Families whose type is fixed: a file that carries one must declare it with
# this TYPE.
KNOWN_TYPES = {
    "lucid_compiler_decls_reused_total": "counter",
    "lucid_compiler_stage_ns": "histogram",
    "lucid_layout_restarts_total": "counter",
}


def fail(message):
    print(f"INVALID: {message}", file=sys.stderr)
    sys.exit(1)


def read_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"ERROR: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def validate_trace(path):
    text = read_file(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        fail(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail('missing "traceEvents" list')
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            fail(f"{where} is not an object")
        for required in ("name", "ph", "ts"):
            if required not in event:
                fail(f'{where} missing "{required}"')
        if not isinstance(event["name"], str):
            fail(f"{where}.name is not a string")
        phase = event["ph"]
        if phase not in KNOWN_PHASES:
            fail(f"{where}.ph {phase!r} is not a known phase")
        if not isinstance(event["ts"], (int, float)) or isinstance(
            event["ts"], bool
        ):
            fail(f"{where}.ts is not numeric")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool):
                fail(f'{where} (complete event) missing numeric "dur"')
            if dur < 0:
                fail(f"{where}.dur is negative")
    phases = sorted({e["ph"] for e in events})
    print(
        f"OK: {path}: {len(events)} trace events "
        f"(phases: {', '.join(phases) if phases else 'none'})"
    )


def parse_value(raw, where):
    if raw == "+Inf":
        return math.inf
    try:
        return float(raw)
    except ValueError:
        fail(f"{where}: sample value {raw!r} is not numeric")
    return None  # unreachable


def validate_prom(path):
    text = read_file(path)
    samples = 0
    typed = {}  # metric family -> declared type
    # histogram family -> list of (le-upper-bound, cumulative count)
    buckets = {}
    counts = {}  # histogram family -> value of <family>_count
    for line_no, line in enumerate(text.splitlines(), start=1):
        where = f"{path}:{line_no}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                fail(f"{where}: malformed comment line {line!r}")
            if not METRIC_NAME_RE.match(parts[2]):
                fail(f"{where}: illegal metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "untyped",
                ):
                    fail(f"{where}: bad TYPE line {line!r}")
                typed[parts[2]] = parts[3]
                expected = KNOWN_TYPES.get(parts[2])
                if expected is not None and parts[3] != expected:
                    fail(f"{where}: {parts[2]} is a {expected}, not {parts[3]}")
            continue
        match = SAMPLE_RE.match(line)
        if match is None:
            fail(f"{where}: malformed sample line {line!r}")
        name = match.group("name")
        value = parse_value(match.group("value"), where)
        samples += 1
        if name.endswith("_bucket"):
            family = name[: -len("_bucket")]
            labels = match.group("labels") or ""
            le_match = re.search(r'le="([^"]*)"', labels)
            if le_match is None:
                fail(f'{where}: histogram bucket without an le="" label')
            le_raw = le_match.group(1)
            upper = math.inf if le_raw == "+Inf" else parse_value(le_raw, where)
            # A labeled family is one series per label set; key the cumulative
            # check on (family, labels-minus-le) so shard="0" and shard="1"
            # buckets validate independently.
            rest = ",".join(
                part
                for part in labels.split(",")
                if part and not part.startswith('le="')
            )
            series = f"{family}{{{rest}}}" if rest else family
            buckets.setdefault(series, []).append((upper, value, line_no))
        elif name.endswith("_count"):
            series = name[: -len("_count")]
            labels = match.group("labels") or ""
            if labels:
                series = f"{series}{{{labels}}}"
            counts[series] = (value, line_no)
    for family, rows in buckets.items():
        last = -math.inf
        prev_upper = -math.inf
        for upper, value, line_no in rows:
            where = f"{path}:{line_no}"
            if upper <= prev_upper:
                fail(f"{where}: {family} le bounds are not increasing")
            if value < last:
                fail(f"{where}: {family} buckets are not cumulative")
            prev_upper, last = upper, value
        if rows[-1][0] != math.inf:
            fail(f"{family}: last bucket is not le=\"+Inf\"")
        if family not in counts:
            fail(f"{family}: histogram without a _count sample")
        if rows[-1][1] != counts[family][0]:
            fail(
                f"{family}: +Inf bucket {rows[-1][1]:g} != "
                f"_count {counts[family][0]:g}"
            )
    if samples == 0:
        fail(f"{path}: no samples found")
    print(
        f"OK: {path}: {samples} samples, {len(typed)} metric families "
        f"({len(buckets)} histograms)"
    )


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ("trace", "prom"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    if sys.argv[1] == "trace":
        validate_trace(sys.argv[2])
    else:
        validate_prom(sys.argv[2])


if __name__ == "__main__":
    main()
