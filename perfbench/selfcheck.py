#!/usr/bin/env python3
"""Self-check of the perfbench harness at tiny scale (about a minute).

For every workload in BENCHMARK.json it checks that
  * an untraced run prints every end-to-end metric with its unit,
  * a traced run prints every per-layer metric with its unit,
  * a run whose first oracle answer is deliberately wrong exits nonzero
    and reports `correct: false`.

    python3 perfbench/selfcheck.py

Run it from the root of a checkout; it calls perfbench/run.sh.
"""

import json
import subprocess
import sys


def run(workload, trace, *extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "1",
           "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def main():
    bench = json.load(open("BENCHMARK.json"))
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, err = run(w, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{w} trace={trace}: exit {code}, result {result}\n{err}")
                continue
            got = result["metrics"]
            for m in listed:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"]:
                    problems.append(f"{w} trace={trace}: {m['name']} missing or unit differs: {entry}")
            unlisted = set(got) - {m["name"] for m in listed}
            if unlisted:
                problems.append(f"{w} trace={trace}: metrics not in BENCHMARK.json: {sorted(unlisted)}")
        code, result, _ = run(w, 0, "--corrupt-oracle")
        if code == 0 or result is None or result["correct"] or result["failed"] == 0:
            problems.append(f"{w}: a wrong oracle answer did not fail the run (exit {code}, {result})")
        print(f"{w}: checked", file=sys.stderr)
    for p in problems:
        print(p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
