"""One workload run in a fresh process; ``run.py`` starts it.

Roles:

* ``setup``: import, set up, print the set-up time and exit;
* ``measure``: set up, run whole op cycles until ``--seconds`` of op time
  have passed, check every op's output outside the timed region, and
  print the end-to-end figures.  Set-up and op times in these two roles
  are scaled by a calibration loop (see :func:`measure`);
* ``trace``: run a fixed schedule of ``trace_cycles`` cycles untraced
  (checked once, then repeated until ``--seconds`` of op time), then once
  with every layer wrapped, and print the per-layer figures and the
  tracing overhead.  The traced schedule depends only on the workload, so
  counts repeat exactly for one seed.

Both ``measure`` and ``trace`` print a digest of the outputs of the
trace schedule's ops.

The output is one JSON object on the last line of standard output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports cleb)

from tracing import Tracer, install, layer_metrics, self_time_shares  # noqa: E402

from cleb.errors import ClebError  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def set_up(name: str, seed: int, scale: str):
    wl = WORKLOADS[name](seed, scale)
    wl.setup()
    return wl


def freeze_setup() -> None:
    """Move every object alive after set-up out of the cyclic garbage
    collector's reach, so that full collections triggered by the ops do
    not rescan the instances the benchmark keeps.  Those rescans doubled
    the time of some ``local_walks`` parts and made it vary from op to op.
    Objects the ops allocate are collected as before."""
    gc.collect()
    gc.freeze()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Outcome of a sequence of ops: timings, failures, checked outputs.

    The digest covers the outputs of the first ``digest_ops`` ops, which
    every run of a workload completes, traced or not.
    """

    def __init__(self, digest_ops: int):
        self.digest_ops = digest_ops
        self.op_times: list[float] = []
        self.failed = 0
        self.vertices = 0
        self.walk_steps = 0
        self.answers = 0
        self.digested: list[str] = []
        self.problems: list[str] = []

    def run_op(self, wl, k: int, spec) -> None:
        """Run op k part by part; each part is timed, then checked."""
        op_s = 0.0
        problems = []
        for i, part in enumerate(wl.parts(spec)):
            start = time.perf_counter()
            try:
                out = wl.run(k, i, part)
            except ClebError as err:
                op_s += time.perf_counter() - start
                problems.append(f"{wl.label(part)}: {type(err).__name__}: {err}")
                continue
            op_s += time.perf_counter() - start
            try:
                res = wl.check(k, i, part, out)
            except ClebError as err:
                problems.append(f"{wl.label(part)}: check raised {type(err).__name__}: {err}")
                continue
            if not res.ok:
                problems.append(f"{wl.label(part)}: {res.problem}")
            self.vertices += res.vertices
            self.walk_steps += res.walk_steps
            self.answers += res.answers
            if k < self.digest_ops:
                self.digested.append(res.summary)
        self.op_times.append(op_s)
        if problems:
            self.failed += 1
            if k < self.digest_ops:
                self.digested += problems
            self.problems += [f"op {k}: {p}" for p in problems][:10 - len(self.problems)]

    def digest(self) -> str:
        """Hash of the digested outputs: equal seeds give equal digests."""
        return hashlib.sha256("\n".join(self.digested).encode()).hexdigest()[:16]


REF_S = 0.005   # calibration time that reported times are scaled to


def calibration_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop (dict updates, arithmetic,
    appends and a sort, the stuff of the library's inner loops): how fast
    the machine runs Python code right now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        counts, keys = {}, []
        for i in range(30_000):
            key = (i * 7919) & 2047
            counts[key] = counts.get(key, 0.0) + i * 0.5
            if i & 7 == 0:
                keys.append(key)
        keys.sort()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(wl, seconds: float) -> dict:
    """Whole cycles until ``seconds`` of op time, and at least the ops of a
    traced run, so that both modes digest the same outputs.

    The calibration loop runs before the first op and after every op,
    outside the ops' timing.  Each op's time is scaled by ``REF_S`` over
    the mean loop time just before and just after it: the reported times
    are those of a machine on which the loop takes ``REF_S``.  On a shared
    host the speed of a core changes by up to 1.8x within a minute, and an
    op slows by nearly the same factor as the loop run beside it.
    """
    specs = wl.cycle()
    min_ops = len(specs) * wl.trace_cycles
    tally = Tally(min_ops)
    cals = [calibration_s()]    # op k runs between cals[k] and cals[k + 1]
    k = 0
    raw_timed = 0.0
    cycles = []     # (vertices, walk steps) of each whole cycle
    while True:
        vertices, steps = tally.vertices, tally.walk_steps
        for spec in specs:
            tally.run_op(wl, k, spec)
            cals.append(calibration_s())
            k += 1
        cycles.append((tally.vertices - vertices, tally.walk_steps - steps))
        raw_timed += sum(tally.op_times[-len(specs):])
        if raw_timed >= seconds and k >= min_ops:
            break
    op_times = [t * 2 * REF_S / (a + b) for t, a, b in zip(tally.op_times, cals, cals[1:])]
    m = len(specs)
    cycle_s = [sum(op_times[c * m:(c + 1) * m]) for c in range(len(cycles))]
    n = len(op_times)
    tail = percentile(op_times, wl.tail_pct)

    def rate(i: int) -> float:
        """Median over the whole cycles of a cycle's rate: robust to the
        few cycles that a burst of load on the machine slows down."""
        return statistics.median(c[i] / t for c, t in zip(cycles, cycle_s))

    return {
        "attempted": n, "failed": tally.failed, "problems": tally.problems,
        "digest": tally.digest(), "timed_s": raw_timed, "cycles": len(cycles),
        "ops_per_s": statistics.median(m / t for t in cycle_s),
        "op_s_p50": percentile(op_times, 50.0),
        "op_s_tail": tail, "tail_pct": wl.tail_pct,
        "tail_beyond": sum(1 for t in op_times if t > tail),
        "vertices_per_s": rate(0),
        "walk_steps_per_s": rate(1),
        "failed_frac": tally.failed / n,
        "raw_ops_per_s": n / raw_timed,
        "raw_op_s_p50": percentile(tally.op_times, 50.0),
        "calibration_s": cals, "ref_s": REF_S,
    }


def run_unchecked(wl, schedule, before=None) -> list[tuple[str, str, float]]:
    """Run every part of the schedule without checks.

    ``before(part_id, vertices)`` is called ahead of each part.  Returns
    (part id, label, seconds) per part.
    """
    out = []
    for k, spec in schedule:
        for i, part in enumerate(wl.parts(spec)):
            part_id = f"op{k}.{i}"
            if before is not None:
                before(part_id, wl.vertices(k, i, part))
            start = time.perf_counter()
            try:
                wl.run(k, i, part)
            except ClebError:
                pass  # counted as failed by the checked pass
            out.append((part_id, wl.label(part), time.perf_counter() - start))
    return out


def trace(name: str, seed: int, scale: str, seconds: float) -> dict:
    wl = set_up(name, seed, scale)
    freeze_setup()
    schedule = list(enumerate(wl.cycle() * wl.trace_cycles))
    tally = Tally(len(schedule))
    for k, spec in schedule:
        tally.run_op(wl, k, spec)
    # more untraced passes until `seconds` of op time, for a steady base
    passes = [sum(tally.op_times)]
    while sum(passes) < seconds:
        passes.append(sum(s for _, _, s in run_unchecked(wl, schedule)))
    untraced_s = statistics.median(passes)
    del wl

    # the traced pass repeats the same ops, so the checked pass's checks
    # hold for it; it runs no checks, which would add calls to the counts
    tracer = Tracer()
    install(tracer)
    wl = set_up(name, seed, scale)
    freeze_setup()
    parts = run_unchecked(wl, schedule, before=tracer.begin_op)
    tracer.op = "end"
    traced_s = sum(s for _, _, s in parts)
    by_label: dict[str, list[tuple[str, float]]] = {}
    for part_id, label, s in parts:
        by_label.setdefault(label, []).append((part_id, s))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, tally.answers)
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    return {
        "attempted": len(schedule), "failed": tally.failed, "problems": tally.problems,
        "digest": tally.digest(), "layer": metrics,
        "untraced_s": untraced_s, "untraced_passes": len(passes), "traced_s": traced_s,
        "spans_file": spans_path,
        "self_share": {k: round(v, 4) for k, v in list(self_time_shares(tracer).items())[:12]},
        "part_share": {label: part_shares(tracer, ps) for label, ps in by_label.items()},
    }


SHARE_LAYERS = ("families.realize", "weights.min_out_subtract", "weights.base",
                "graph.stack_init", "graph.contract", "graph.uncontract",
                "algorithms.walk", "algorithms.recover", "walks.lcrw", "walks.lerw",
                "walks.escape", "oracle.law")


def part_shares(tracer: Tracer, parts: list[tuple[str, float]]) -> dict[str, float]:
    """Inclusive time of each main layer as a share of the parts' traced time."""
    total = sum(s for _, s in parts)
    shares = {name: sum(tracer.per_op.get((part_id, name), 0.0) for part_id, _ in parts) / total
              for name in SHARE_LAYERS}
    return {name: round(v, 4) for name, v in shares.items() if v > 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if args.role == "trace":
        result = trace(args.workload, args.seed, args.scale, args.seconds)
    else:
        wl = set_up(args.workload, args.seed, args.scale)
        raw_setup_s = time.perf_counter() - T0
        result = {"setup_s": raw_setup_s * REF_S / calibration_s(5),
                  "raw_setup_s": raw_setup_s}
        if args.role == "measure":
            freeze_setup()
            result.update(measure(wl, args.seconds))
    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
