"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload it checks that an
untraced run prints every end-to-end metric named in BENCHMARK.json with
a positive value and no failed op, that two traced runs at one seed print
every per-layer metric with identical counts and output digests, and
that the benchmark refuses to run (nonzero exit, no result line) in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run(command: list[str], workload: str, trace: int, cwd: str = ".") -> tuple[int, list[str]]:
    cmd = command + ["--workload", workload, "--seed", "7", "--seconds", "0.3",
                     "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(res)}")
    return res


def digest_of(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("digest "))


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    command = spec["command"]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    for w in (entry["name"] for entry in spec["workloads"]):
        code, lines = run(command, w, 0)
        if code != 0:
            problems.append(f"{w}: untraced run exited {code}")
            continue
        res = result_of(lines)
        untraced_digest = digest_of(lines)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != end_to_end:
            problems.append(f"{w}: end-to-end metrics {got} != {end_to_end}")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            problems.append(f"{w}: correct={res['correct']} failed={res['failed']}")
        zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
        if zero:
            problems.append(f"{w}: metrics not positive: {zero}")

        traced = []
        for _ in range(2):
            code, lines = run(command, w, 1)
            if code != 0:
                problems.append(f"{w}: traced run exited {code}")
                break
            traced.append((result_of(lines), digest_of(lines)))
        if len(traced) < 2:
            continue
        (first, d1), (second, d2) = traced
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        if got != per_layer:
            problems.append(f"{w}: per-layer metrics {sorted(got)} != {sorted(per_layer)}")
        counts = [k for k, unit in per_layer.items() if unit == "count"]
        differ = [k for k in counts
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        if differ:
            problems.append(f"{w}: counts differ between traced runs: {differ}")
        if not d1 == d2 == untraced_digest:
            problems.append(f"{w}: output digests differ between runs of one seed")
        print(f"smoke {w}: ok" if not any(p.startswith(w) for p in problems)
              else f"smoke {w}: FAILED", flush=True)

    with tempfile.TemporaryDirectory(dir=HERE, prefix="out-bare-") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "out-*", "__pycache__"))
        code, lines = run(command, spec["workloads"][0]["name"], 0, cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("bare directory: the benchmark did not refuse to run")

    for p in problems:
        print(f"problem: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
