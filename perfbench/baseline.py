"""Record a baseline: repeated untraced runs per workload, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the repository root.  Each workload is run ``RUNS`` times, with
seeds 1, 2, ..., for BENCHMARK.json's ``run_seconds``.  For every
end-to-end metric the file keeps the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (interquartile
distance over the median), next to the metric's bound.  One traced run per
workload adds the per-layer figures and the traced per-part shares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS = 10   # untraced runs per workload, seeds 1..RUNS


def run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return proc.stdout.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    command = [sys.executable] + spec["command"][1:]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for w in (entry["name"] for entry in spec["workloads"]):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in range(1, RUNS + 1):
            start = time.monotonic()
            lines = run(command, w, seed, spec["run_seconds"], 0)
            res = json.loads(lines[-1])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            runs.append({"seed": seed, "wall_s": round(time.monotonic() - start, 2),
                         "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "digest": next(x.split()[1] for x in lines if x.startswith("digest ")),
                         "machine": next(x for x in lines if x.startswith("machine "))})
            print(w, runs[-1], flush=True)
        metrics = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds[name],
                             "values": vals}
            print(f"{w} {name} median={median:.6g} spread={(q3 - q1) / median:.4f} "
                  f"bound={bounds[name]}", flush=True)
        lines = run(command, w, 1, spec["run_seconds"], 1)
        traced = json.loads(lines[-1])
        record["workloads"][w] = {
            "runs": runs, "end_to_end": metrics,
            "traced_seed": 1,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_breakdown": [x for x in lines[:-1] if x.startswith(("self_share", "part_share",
                                                                        "trace "))],
        }
    record["env"] = next(x for x in lines if x.startswith("env "))
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
