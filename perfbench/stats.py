#!/usr/bin/env python3
"""Judge the benchmark's run-to-run spread, or compare two sets of runs.

Run from the repository root:

  python3 perfbench/stats.py spread WORKLOAD SEED... [--trace 1] [--save FILE]
      Run the benchmark once per seed. Print, per metric, the median, the
      quartiles and their distance as a share of the median, against the
      metric's bound in BENCHMARK.json (a spread must stay below a third
      of its bound; setup_s is exempt). --save appends every run as one
      JSON line.
  python3 perfbench/stats.py compare BEFORE.jsonl AFTER.jsonl
      Per workload and end-to-end metric, compare the two medians against
      the metric's bound. A metric whose spread on either side exceeds its
      bound is UNRESOLVED: the host moved it more than the bound allows,
      so the two medians cannot judge it. Exit 1 on any regression or
      unresolved metric, and refuse any run that failed a job or a check.
  python3 perfbench/stats.py heldout FILE.jsonl WORKLOAD SEED
      Run one seed that is not in FILE (so it did not set the bounds) and
      check that every end-to-end metric lands within its bound of the
      saved median.

Every record carries the config stamp the benchmark prints. Records whose
stamps differ in anything but the source revision and the seed are
refused, never compared.
"""

import argparse
import json
import statistics
import subprocess
import sys

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
E2E = {m["name"]: m for m in BENCH["end_to_end"]}
FREE_STAMP_KEYS = ("rev", "seed")


def run(workload, seed, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    return record


def config(record):
    return {k: v for k, v in record["stamp"].items() if k not in FREE_STAMP_KEYS}


def require_clean(records):
    for r in records:
        res = r["result"]
        if not res["correct"] or res["failed"]:
            sys.exit(f"refusing a run that failed: {r['stamp']['workload']} seed "
                     f"{r['stamp']['seed']}: correct={res['correct']} failed={res['failed']}")


def spread_of(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else 0.0


def require_same_config(records):
    first = config(records[0])
    for r in records[1:]:
        if config(r) != first:
            sys.exit(f"refusing to compare runs with different stamps:\n  {first}\n  {config(r)}")


def values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records]


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def worse_by(metric, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def spread(args):
    records = []
    for seed in args.seeds:
        r = run(args.workload, seed, args.trace)
        res = r["result"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
        records.append(r)
        if args.save:
            with open(args.save, "a") as f:
                f.write(json.dumps(r) + "\n")
    require_same_config(records)
    ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in records)
    for name in records[0]["result"]["metrics"]:
        q1, med, q3 = statistics.quantiles(values(records, name), n=4)
        share = spread_of(values(records, name))
        bound = E2E.get(name, {}).get("bound")
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if share < bound / 3 else "WIDE"
            ok = ok and verdict == "ok"
        print(f"{name:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:7.2%}  bound {bound}  {verdict}")
    return 0 if ok else 1


def compare(args):
    before, after = load(args.before), load(args.after)
    regressed = False
    for workload in sorted({r["stamp"]["workload"] for r in before + after}):
        b = [r for r in before if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == 0]
        a = [r for r in after if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == 0]
        if not b or not a:
            sys.exit(f"{workload}: runs missing on one side")
        require_same_config(b + a)
        require_clean(b + a)
        for name, m in E2E.items():
            mb, ma = statistics.median(values(b, name)), statistics.median(values(a, name))
            worse = worse_by(m, mb, ma)
            wide = len(b) > 1 and len(a) > 1 and max(
                spread_of(values(b, name)), spread_of(values(a, name))) > m["bound"]
            status = "REGRESSED" if worse > m["bound"] else "UNRESOLVED" if wide else "ok"
            regressed = regressed or status != "ok"
            print(f"{workload:14s} {name:16s} {mb:<12.6g} -> {ma:<12.6g} "
                  f"({-worse:+.2%} better)  bound {m['bound']}  {status}")
    return 1 if regressed else 0


def heldout(args):
    ref = [r for r in load(args.file)
           if r["stamp"]["workload"] == args.workload and r["stamp"]["trace"] == 0]
    if not ref:
        sys.exit(f"no saved untraced runs of {args.workload} in {args.file}")
    if args.seed in {r["stamp"]["seed"] for r in ref}:
        sys.exit(f"seed {args.seed} set the bounds; pick a held-out seed")
    r = run(args.workload, args.seed, 0)
    require_same_config(ref + [r])
    inside = r["result"]["correct"] and r["result"]["failed"] == 0
    for name, m in E2E.items():
        med = statistics.median(values(ref, name))
        value = r["result"]["metrics"][name]["value"]
        off = abs(value - med) / med if med else 0.0
        status = "inside" if off <= m["bound"] else "OUTSIDE"
        inside = inside and status == "inside"
        print(f"{args.workload:14s} {name:16s} median {med:<12.6g} held-out {value:<12.6g} "
              f"off {off:6.2%}  bound {m['bound']}  {status}")
    return 0 if inside else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("workload")
    s.add_argument("seeds", nargs="+", type=int)
    s.add_argument("--trace", type=int, default=0, choices=(0, 1))
    s.add_argument("--save")
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    h = sub.add_parser("heldout")
    h.add_argument("file")
    h.add_argument("workload")
    h.add_argument("seed", type=int)
    args = p.parse_args()
    return {"spread": spread, "compare": compare, "heldout": heldout}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
