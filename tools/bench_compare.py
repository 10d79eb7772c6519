#!/usr/bin/env python3
"""Compare two merged bench summaries (BENCH_summary.json) metric by metric.

Usage:
    tools/bench_compare.py PREVIOUS.json CURRENT.json [--fail-on-regression]

Both files are the artifact perf-smoke merges from the per-bench
BENCH_*.json documents: {"bench_frontend": {...}, "bench_native": {...}, ...}.
Every numeric leaf shared by both files is compared; a metric whose relative
change exceeds its threshold is reported. Metrics of benches that were folded
into another are read under their new path (RENAMED_BENCHES), so a summary
from before the fold still lines up.

Thresholds are per-metric-kind, not global: wall-clock and throughput
numbers (``*_ms``, ``*_s``, ``*_pps``, ``*speedup*``, ...) jitter hard on
shared CI runners, so they get a loose 50% band; structural metrics (stage
counts, LOC, restarts, passes — anything the compiler deterministically
produces) get a tight 25% band, where a move almost always means a real
behavior change.

Exit status:
    0   compared cleanly (regressions are printed but warn-only by default)
    1   --fail-on-regression was given and at least one metric regressed
    2   a file is missing, unreadable, malformed JSON, or not an object

The CI workflow invokes this warn-only (no --fail-on-regression): the hard
perf gates live inside the benches themselves; this is the cross-run radar.
Exit 2 is always fatal there — a malformed summary means the merge step or
an upstream bench broke, which must not pass silently.
"""

import argparse
import json
import sys

# Substrings marking a timing/throughput metric (loose threshold). Checked
# against the final path component, lowercased.
NOISY_MARKERS = (
    "_ms",
    "_s",
    "_ns",
    "_us",
    "pps",
    "gbps",
    "speedup",
    "wall",
    "ratio",
    "geomean",
    "overhead",
    "latency",
    "scaling",
)

NOISY_THRESHOLD = 0.50

# Folded benches: old top-level bench name -> its section in the merged one.
RENAMED_BENCHES = {
    "bench_layout": "bench_frontend.layout",
    "bench_incremental": "bench_frontend.incremental",
}
STRICT_THRESHOLD = 0.25


def flatten(doc, prefix=""):
    """Numeric leaves of a JSON document as {dotted.path: float}."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            out.update(flatten(value, f"{prefix}{index}."))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix[:-1]] = float(doc)
    return out


def renamed(metrics):
    out = {}
    for key, value in metrics.items():
        bench, _, rest = key.partition(".")
        if bench in RENAMED_BENCHES:
            key = f"{RENAMED_BENCHES[bench]}.{rest}"
        out[key] = value
    return out


def threshold_for(key):
    leaf = key.rsplit(".", 1)[-1].lower()
    if any(marker in leaf for marker in NOISY_MARKERS):
        return NOISY_THRESHOLD
    return STRICT_THRESHOLD


def load_summary(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        print(f"ERROR: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as exc:
        print(f"ERROR: {path} is not valid JSON: {exc}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or not doc:
        print(f"ERROR: {path} is not a non-empty JSON object", file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("previous", help="baseline BENCH_summary.json")
    parser.add_argument("current", help="candidate BENCH_summary.json")
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any metric moves past its threshold "
        "(default: report and exit 0)",
    )
    args = parser.parse_args()

    prev = renamed(flatten(load_summary(args.previous)))
    cur = renamed(flatten(load_summary(args.current)))
    if not prev or not cur:
        print("ERROR: no numeric metrics found to compare", file=sys.stderr)
        sys.exit(2)

    shared = sorted(prev.keys() & cur.keys())
    moved = []
    for key in shared:
        old, new = prev[key], cur[key]
        if old == 0.0:
            continue
        delta = (new - old) / abs(old)
        limit = threshold_for(key)
        if abs(delta) > limit:
            moved.append((key, old, new, delta, limit))

    only_prev = len(prev.keys() - cur.keys())
    only_cur = len(cur.keys() - prev.keys())
    print(
        f"compared {len(shared)} shared metrics "
        f"({only_prev} only in previous, {only_cur} only in current)"
    )
    for key, old, new, delta, limit in moved:
        print(f"  {key}: {old:g} -> {new:g} ({delta:+.0%}, limit ±{limit:.0%})")
    if moved:
        print(f"{len(moved)} metric(s) moved past their threshold")
    else:
        print("no shared metric moved past its threshold")

    if moved and args.fail_on_regression:
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
