#!/usr/bin/env python3
"""Compare two bench_e2e binaries, record a baseline, or fingerprint the host.

    compare.py compare  --parent BIN --change BIN [--pairs 10] [--seed N]
    compare.py baseline --binary BIN [--runs 10] [--seed N]
    compare.py fingerprint [--binary BIN]

`compare` runs the parent and the change binary on the same seeds in at
least ten pairs per workload, alternating which side runs first, and judges
every end-to-end metric of BENCHMARK.json on every workload:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own spread (distance between its quartiles);
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread, as a share of its median, exceeds the
              bound, unless every change run beats every parent run;
  same        none of the above.

Every run lasts BENCHMARK.json's run_seconds. The exit status is 1 when
any metric is worse or any run fails, else 0.

`baseline` runs one binary on every workload and writes the runs, their
medians and quartiles, and the host fingerprint to
bench/e2e/baselines/<fingerprint id>.json. It is a record of the host, not
a parent to compare against: the host's speed drifts between the time a
baseline is recorded and the time a change is measured. `fingerprint`
prints the fingerprint: CPU model, nproc, the 4-process/1-process CPU burn
ratio, `c++ --version`, and the binary's build type.

Standard library only; one benchmark process runs at a time.
"""
import argparse
import json
import multiprocessing
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def run_once(binary, workload, seed, seconds):
    """One fresh-process run; returns {metric: value} of the result line."""
    p = subprocess.run(
        [str(binary), f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds}"],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{binary} {workload} seed {seed} exited "
                           f"{p.returncode}:\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{binary} {workload} seed {seed}: incorrect "
                           f"output or failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def judge(metric, parent, change):
    """Verdict for one metric from paired runs (lists in pair order)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p, c = summary(parent), summary(change)
    wins = sum((cv < pv) if lower else (cv > pv)
               for pv, cv in zip(parent, change))
    dominates = (max(change) < min(parent)) if lower else (
        min(change) > max(parent))
    worse_by = ((c["median"] - p["median"]) if lower else
                (p["median"] - c["median"])) / p["median"]
    if worse_by > bound:
        verdict = "worse"
    elif (wins >= 0.9 * len(parent) and
          abs(c["median"] - p["median"]) > p["q3"] - p["q1"] and
          worse_by < 0):
        verdict = "better"
    elif max(p["spread"], c["spread"]) > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "change_pct": -100.0 * worse_by, "verdict": verdict}


def cmd_compare(args):
    seconds = BENCHMARK["run_seconds"]
    report = {}
    failed = False
    for w in [w["name"] for w in BENCHMARK["workloads"]]:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                sides.reverse()
            for side, binary in sides:
                runs[side].append(run_once(binary, w, args.seed + i, seconds))
            print(f"  {w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        report[w] = {}
        for m in BENCHMARK["end_to_end"]:
            name = m["name"]
            r = judge(m, [v[name] for v in runs["parent"]],
                      [v[name] for v in runs["change"]])
            report[w][name] = r
            failed |= r["verdict"] == "worse"
    print(f"{'workload':12s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'change':>8s} {'wins':>6s}  verdict")
    for w, metrics in report.items():
        for name, r in metrics.items():
            p, c = r["parent"], r["change"]
            print(f"{w:12s} {name:16s} "
                  f"{p['median']:12.6g} [{p['q1']:9.4g}, {p['q3']:9.4g}] "
                  f"{c['median']:12.6g} [{c['q1']:9.4g}, {c['q3']:9.4g}] "
                  f"{r['change_pct']:+7.2f}% {r['wins']:2d}/{r['pairs']:<2d}  "
                  f"{r['verdict']}")
    return 1 if failed else 0


def cpu_burn(n):
    x = 0
    for i in range(n):
        x += i * i
    return x


def burn_seconds(procs, n=3_000_000):
    t0 = time.monotonic()
    with multiprocessing.Pool(procs) as pool:
        pool.map(cpu_burn, [n] * procs)
    return time.monotonic() - t0


def fingerprint(binary):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cxx = subprocess.run(["c++", "--version"], capture_output=True,
                         text=True).stdout.splitlines()
    build_type = "unknown"
    if binary is not None:
        cache = Path(binary).resolve().parent / "CMakeCache.txt"
        if cache.exists():
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(\w*)$", cache.read_text(),
                          re.M)
            if m:
                build_type = m.group(1) or "none"
    one = min(burn_seconds(1) for _ in range(3))
    four = min(burn_seconds(4) for _ in range(3))
    fp = {"cpu_model": model, "nproc": os.cpu_count(),
          "burn_4proc_over_1proc": round(four / one, 2),
          "cxx": cxx[0] if cxx else "unknown", "build_type": build_type}
    family = "clang" if "clang" in fp["cxx"] else "gcc"
    version = fp["cxx"].split()[-1] if cxx else "unknown"
    name = re.sub(r"\((r|tm)\)", "", f"{model} {fp['nproc']}cpu {family}"
                  f"{version} {build_type}".lower())
    fp["id"] = re.sub(r"[^a-z0-9.]+", "-", name).strip("-")[:120]
    return fp


def cmd_fingerprint(args):
    print(json.dumps(fingerprint(args.binary), indent=1))
    return 0


def cmd_baseline(args):
    seconds = BENCHMARK["run_seconds"]
    fp = fingerprint(args.binary)
    out = {"fingerprint": fp, "seconds": seconds, "workloads": {}}
    for w in [w["name"] for w in BENCHMARK["workloads"]]:
        seeds = [args.seed + i for i in range(args.runs)]
        runs = []
        for seed in seeds:
            runs.append(run_once(args.binary, w, seed, seconds))
            print(f"  {w}: run {len(runs)}/{len(seeds)} done", file=sys.stderr)
        out["workloads"][w] = {
            "seeds": seeds, "runs": runs,
            "summary": {m["name"]: summary([r[m["name"]] for r in runs])
                        for m in BENCHMARK["end_to_end"]},
        }
    path = HERE / "baselines" / f"{fp['id']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("--parent", required=True, help="parent bench_e2e binary")
    c.add_argument("--change", required=True, help="change bench_e2e binary")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed", type=int, default=1, help="first seed")
    b = sub.add_parser("baseline")
    b.add_argument("--binary", required=True)
    b.add_argument("--runs", type=int, default=10)
    b.add_argument("--seed", type=int, default=1, help="first seed")
    f = sub.add_parser("fingerprint")
    f.add_argument("--binary")
    args = ap.parse_args()
    if args.cmd == "compare" and args.pairs < 10:
        ap.error("--pairs must be at least 10")
    try:
        return {"compare": cmd_compare, "baseline": cmd_baseline,
                "fingerprint": cmd_fingerprint}[args.cmd](args)
    except RuntimeError as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
