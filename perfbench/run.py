"""Run one workload of the cleb benchmark and print its metrics.

    python3 perfbench/run.py --workload lattice_msa --seed 1 --seconds 20 --trace 0

Run it from the repository root.  Every run happens in fresh worker
processes with a fixed environment: one BLAS/OpenMP thread and
``PYTHONPATH=src`` (the package need not be installed).  With
``--trace 0`` the set-up is timed in fifteen fresh processes and the
median is reported as ``setup_s``; the eighth of them also measures the
ops.  Those times are scaled to a fixed machine speed by a calibration
loop run beside them (see ``worker.measure``).  With ``--trace 1`` one
process reports the per-layer breakdown.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the run completed (failed checks
are reported in that object), and nonzero without a result otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lattice_msa", "wired_tree", "local_walks", "monte_carlo")
SETUP_RUNS = 15         # fresh processes whose set-up times give setup_s
TIME_LIMIT_S = 170.0    # whole-run limit, kept below the 180 s allowed
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s_p50", "s"),
              ("op_s_tail", "s"), ("vertices_per_s", "1/s"), ("peak_rss_mb", "MB"))


class RunFailed(Exception):
    pass


def git_commit(root: str) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(cmd: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one cleb benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="instance sizes; 'tiny' is for the smoke check")
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, and subprocess.run then kills
    # and reaps the worker it was waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cleb", "__init__.py")):
        print("run.py: no src/cleb here; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale]
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if args.trace:
            res = run_worker(worker + ["--role", "trace"], env, deadline)
        else:
            # half the set-ups before the measuring process and half after
            # it, so that setup_s samples the machine over the whole run
            setup_cmd = worker + ["--role", "setup"]
            setups = [run_worker(setup_cmd, env, deadline)
                      for _ in range(SETUP_RUNS // 2)]
            res = run_worker(worker + ["--role", "measure"], env, deadline)
            setups.append(res)
            setups += [run_worker(setup_cmd, env, deadline)
                       for _ in range(SETUP_RUNS - len(setups))]
            res["setup_runs"] = [s["setup_s"] for s in setups]
            res["setup_s"] = statistics.median(res["setup_runs"])
            res["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    except RunFailed as err:
        print(f"run.py: {args.workload}: {err}", file=sys.stderr)
        return 1

    print(f"env workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={res['numpy']} "
          f"commit={git_commit(root)}")
    print(f"digest {res['digest']} (outputs of the traced schedule's ops)")
    for problem in res["problems"]:
        print(f"failed {problem}")
    if args.trace:
        metrics = res["layer"]
        print(f"trace untraced_s={res['untraced_s']:.4f} (median of {res['untraced_passes']} "
              f"passes) traced_s={res['traced_s']:.4f} "
              f"spans={os.path.relpath(res['spans_file'], root)}")
        for name, share in res["self_share"].items():
            print(f"self_share {name} {share:.4f}")
        for label, shares in res["part_share"].items():
            print(f"part_share [{label}] " + " ".join(f"{n}={v:.3f}" for n, v in shares.items()))
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
        print(f"ops attempted={res['attempted']} failed={res['failed']} "
              f"failed_frac={res['failed_frac']:.4f} timed_s={res['timed_s']:.3f} "
              f"op_s_tail=p{res['tail_pct']:g} with {res['tail_beyond']} of "
              f"{res['attempted']} ops beyond it")
        print(f"extra walk_steps_per_s {res['walk_steps_per_s']:.6g} 1/s")
        print("setup_runs " + " ".join(f"{s:.4f}" for s in res["setup_runs"]))
        cal = sorted(res["calibration_s"])
        print(f"machine calibration_s min={cal[0]:.5f} median={statistics.median(cal):.5f} "
              f"max={cal[-1]:.5f} (times below are scaled to {res['ref_s']} s)")
        print(f"unscaled setup_s={res['raw_setup_s']:.6g} ops_per_s={res['raw_ops_per_s']:.6g} "
              f"op_s_p50={res['raw_op_s_p50']:.6g}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
