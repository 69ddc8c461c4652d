#!/usr/bin/env python3
"""A/A noise gate: the same code against itself.

Runs every workload of BENCHMARK.json in two interleaved sets (A1 B1 A2 B2 ...).
Run i of either set uses seed 1000 + i, so the two sets get the same inputs:
whatever they disagree on is the host. Prints for every end-to-end metric the
two medians, the spread of each set (IQR / median over its seeds, as the driver
computes it) and how much worse the second median is than the first, against
the metric's bound. Also prints, ungated, rounds_per_s as plain per-round
minima give it (no reference kernel), to keep showing what the kernel buys.

Writes the measured floor to benchmark/noise_floor.json and exits non-zero if
a metric is outside its bound, or if a count differs between two runs of one
seed. As in the driver, the spread of setup_s is reported but does not gate;
its medians do.

usage: benchmark/bench-noise.py [--runs 10]
Run it from the root of the repository, on an otherwise idle machine.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time

FLOOR_FILE = "benchmark/noise_floor.json"
FIRST_SEED = 1000
EXACT = ("msgs_per_unit", "wire_bytes_per_unit")
PLAIN = "plain_rounds_per_s"

def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}\n{proc.stdout[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    plain = re.search(r"^host\.plain_rounds_per_s\s+(\S+)", proc.stdout, re.M)
    values[PLAIN] = float(plain.group(1)) if plain else float("nan")
    return values, time.time() - started

def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}

def worse_by(first, second, better):
    """Share of the first median by which the second is worse (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set (two sets are made)")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2 (quartiles need two values)")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    floor = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = ({name: [] for name in [*specs, PLAIN]}, {name: [] for name in [*specs, PLAIN]})
        for i in range(args.runs):
            seed = FIRST_SEED + i
            for which in (0, 1):
                metrics, took = run_once(bench, workload, seed)
                missing = set(specs) - set(metrics)
                if missing:
                    sys.exit(f"{workload}: metrics missing from the output: {sorted(missing)}")
                for name in sets[which]:
                    sets[which][name].append(metrics[name])
                print(f"# {workload} set {'AB'[which]} run {i + 1}/{args.runs} seed {seed}: {took:.1f}s",
                      file=sys.stderr, flush=True)
            for name in EXACT:
                a, b = sets[0][name][-1], sets[1][name][-1]
                if a != b:
                    ok = False
                    print(f"FAIL {workload} seed {seed}: {name} does not repeat: {a!r} vs {b!r}")
        print(f"\n== {workload}: two interleaved sets of {args.runs}, same seeds ==")
        print(f"{'metric':<22}{'median A':>16}{'median B':>16}{'spread A':>10}{'spread B':>10}"
              f"{'B worse by':>12}{'bound':>8}  verdict")
        floor[workload] = {}
        for name in [*specs, PLAIN]:
            spec = specs.get(name, {"unit": "1/s", "better": "higher", "bound": None})
            a, b = summarize(sets[0][name]), summarize(sets[1][name])
            worse = worse_by(a["median"], b["median"], spec["better"])
            spread = max(a["spread"], b["spread"])
            bound = spec["bound"]
            if bound is None:
                verdict, shown = "not gated: plain per-round minima, no reference kernel", "-"
            else:
                bad = worse > bound or (name != "setup_s" and spread > bound)
                ok &= not bad
                verdict = "FAIL" if bad else "ok"
                if name == "setup_s":
                    verdict += " (spread not gated, as in the driver)"
                elif not bad and spread * 3 > bound:
                    verdict += " (spread above a third of the bound)"
                shown = f"{bound:.3g}"
            print(f"{name:<22}{a['median']:>16.6g}{b['median']:>16.6g}{a['spread']:>10.4f}{b['spread']:>10.4f}"
                  f"{worse:>12.4f}{shown:>8}  {verdict}")
            floor[workload][name] = {
                "unit": spec["unit"], "bound": bound, "runs_per_set": args.runs,
                "set_a": a, "set_b": b, "spread": spread, "disagreement": abs(worse),
            }
    with open(FLOOR_FILE, "w") as f:
        json.dump({"run_seconds": bench["run_seconds"], "floor": floor}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\nmeasured floor written to {FLOOR_FILE}; "
          f"{'every metric within its bound' if ok else 'SOME METRIC OUTSIDE ITS BOUND'}")
    sys.exit(0 if ok else 1)

if __name__ == "__main__":
    main()
