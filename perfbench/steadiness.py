#!/usr/bin/env python3
"""Repeat-run steadiness check for the perfbench benchmark.

Runs every workload several times, each run with a different seed, in
two interleaved sets (A1 B1 A2 B2 ...), so that slow drift of a shared
host lands in both sets alike. For each end-to-end metric it reports, per
set, the median and the spread (distance between the first and third
quartile as a share of the median), and how far set B's median is from
set A's. The bounds are read from BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
        [--workloads hot-cache,deep-slice] [--out perfbench/results.md]

Run it from the root of a checkout; it calls perfbench/run.sh.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):].replace("null", "NaN"))
    return result, detail, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", default="")
    ap.add_argument("--raw", default="", help="also write every run's values as JSON")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    extra = ["host.steal_pct", "host.probe_ms", "server.slice_p90_ms", "server.cpu_ms_per_op", "slice_p99_ms", "paged_p90_ms", "load_cold_p90_ms",
             "load_restore_p90_ms", "main_qps"]
    # values[workload][set][metric] -> list
    values = {w: [{} for _ in range(args.sets)] for w in workloads}
    walls = []
    for i in range(args.runs):
        for w in workloads:
            for s in range(args.sets):
                seed = args.seed_base + 100 * s + i
                result, detail, wall = run_once(w, seed, seconds)
                walls.append(wall)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect run {result}")
                row = values[w][s]
                for m in metrics:
                    row.setdefault(m["name"], []).append(result["metrics"][m["name"]]["value"])
                for name in extra:
                    v = detail.get(name)
                    v = v[0] if isinstance(v, list) else v
                    if v is not None and v == v:
                        row.setdefault(name, []).append(v)
                print(f"run {i} {w} set {s} seed {seed}: {wall:.1f}s "
                      f"steal {row['host.steal_pct'][-1]:.1f}%", file=sys.stderr, flush=True)
    out = []
    out.append(f"runs per set: {args.runs}, sets: {args.sets}, run_seconds: {seconds}, "
               f"wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    out.append("")
    head = "| workload | metric | bound | " + " | ".join(
        f"set {chr(65 + s)} median | set {chr(65 + s)} IQR/median" for s in range(args.sets))
    head += " | B vs A |" if args.sets > 1 else ""
    out.append(head)
    out.append("|" + "---|" * (head.count("|") - 1))
    ok = True
    for w in workloads:
        names = [m["name"] for m in metrics] + extra
        bounds = {m["name"]: m["bound"] for m in metrics}
        for name in names:
            cells = []
            medians = []
            for s in range(args.sets):
                vals = values[w][s].get(name, [])
                if len(vals) < 2:
                    cells += ["-", "-"]
                    medians.append(None)
                    continue
                med, sp = spread(vals)
                medians.append(med)
                cells += [f"{med:.4g}", f"{sp:.1%}"]
                b = bounds.get(name)
                if b is not None and name != "setup_s" and sp > b:
                    ok = False
            drift = ""
            if args.sets > 1 and medians[0] and medians[1] is not None:
                d = medians[1] / medians[0] - 1
                drift = f"{d:+.1%}"
                b = bounds.get(name)
                if b is not None and abs(d) > b:
                    ok = False
            bound = f"{bounds[name]:.0%}" if name in bounds else "(not gated)"
            line = f"| {w} | {name} | {bound} | " + " | ".join(cells)
            line += f" | {drift} |" if args.sets > 1 else " |"
            out.append(line)
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(values, f, indent=1)
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
