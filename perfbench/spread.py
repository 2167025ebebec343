#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

Runs the benchmark once per seed on each workload and prints, for every
end-to-end metric, the median and the distance between the first and
third quartiles as a share of the median (statistics.quantiles, n=4).
A spread must stay under a third of the metric's bound (setup_s is
reported but exempt). With --compare, it also checks that each median is
no worse than a saved earlier set's median by more than the bound.

  python3 perfbench/spread.py --seeds 1-10 [--workloads table3,fault-storm]
      [--seconds N] [--save set1.json] [--compare set0.json]

Run it from the repository root. Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    old = json.load(open(args.compare)) if args.compare else {}
    saved, ok = {}, True
    for w in names:
        values = {}
        for seed in seeds:
            got = run_once(w, seed, seconds)
            for k, v in got.items():
                values.setdefault(k, []).append(v)
            shown = " ".join(f"{m['name']}={got[m['name']]:.6g}" for m in bench["end_to_end"])
            print(f"  {w} seed {seed}: {shown}", file=sys.stderr, flush=True)
        saved[w] = values
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v = values[name]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            steady = name == "setup_s" or spread < bound / 3
            line = f"{w:16} {name:18} median {med:16.6g} spread {spread:7.4f} bound {bound:5.2f}"
            if not steady:
                line += "  SPREAD TOO WIDE"
            if w in old:
                before = statistics.median(old[w][name])
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                line += f"  vs saved {worse:+.4f}"
                if worse > bound:
                    line += "  WORSE THAN BOUND"
                    steady = False
            ok = ok and steady
            print(line, flush=True)
    if args.save:
        json.dump(saved, open(args.save, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
