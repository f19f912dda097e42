#!/usr/bin/env python3
"""Steadiness check: run every workload in two sets of seeded runs and
compare them against the bounds in BENCHMARK.json.

Usage, from the root of a checkout::

    python3 checkbench/steady.py

It makes two sets of ten runs of every workload, at BENCHMARK.json's
``run_seconds``, one run at a time, workloads interleaved. For each
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over the median), and whether the sets agree: both
spreads within the bound (except for ``setup_s``, see SPREAD_FREE), the
two medians apart by no more than the bound, and the same share of
failed operations in both sets. The full
table is also written to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402

RUN_TIMEOUT_S = 180
SETS = 2
RUNS = 10
#: setup_s is a few sub-second timings with nothing to average them over,
#: so the machine's swings in speed (up to 1.7x over seconds) widen its
#: spread between runs; what it guards is work moved into set-up, which
#: shows in the drift of its median, so only that drift is checked.
SPREAD_FREE = {"setup_s"}


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(command)} reported incorrect output:\n{done.stderr}")
    return result


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    # results[set][workload] -> list of run results
    results: List[Dict[str, List[dict]]] = []
    for number in range(SETS):
        runs: Dict[str, List[dict]] = {w: [] for w in workloads}
        for index in range(RUNS):
            seed = 1000 * (number + 1) + index
            for workload in workloads:
                result = run_once(spec, workload, seed, seconds)
                runs[workload].append(result)
                shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"set {number + 1} {workload} seed={seed} failed={result['failed']}"
                      f"/{result['attempted']} {shown}", flush=True)
        results.append(runs)

    table = []
    steady = True
    for workload in workloads:
        shares = [
            {r["failed"] / r["attempted"] for r in runs[workload]} for runs in results
        ]
        same_share = len(set().union(*shares)) == 1
        steady &= same_share
        print(f"\n{workload}: failed share per run {sorted(set().union(*shares))}"
              f" ({'same' if same_share else 'DIFFERS'})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {"workload": workload, "metric": name, "bound": bound, "sets": []}
            for runs in results:
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                q1, median, q3 = quartiles(values)
                row["sets"].append(
                    {"q1": q1, "median": median, "q3": q3, "spread": spread(values)}
                )
            spreads_ok = name in SPREAD_FREE or all(s["spread"] <= bound for s in row["sets"])
            drift = worse_by(metric, row["sets"][0]["median"], row["sets"][1]["median"])
            row["drift"] = drift
            row["agree"] = spreads_ok and abs(drift) <= bound
            steady &= row["agree"]
            table.append(row)
            sets = "  ".join(
                f"set{i + 1} median={s['median']:.4g} q1={s['q1']:.4g} q3={s['q3']:.4g}"
                f" spread={s['spread']:.3f}"
                for i, s in enumerate(row["sets"])
            )
            target = "" if name in SPREAD_FREE or max(
                s["spread"] for s in row["sets"]) < bound / 3 else " (spread above bound/3)"
            print(f"  {name:14s} bound={bound:<5} {sets}  drift={drift:+.3f}"
                  f"  {'agree' if row['agree'] else 'DISAGREE'}{target}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as handle:
        json.dump({"seconds": seconds, "runs": RUNS, "table": table}, handle, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
