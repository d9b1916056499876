"""Span tracing around the public entry points of each ``cleb`` layer.

The tracer replaces functions at their module (or class) attributes with
wrappers that time every call, so no file under ``src/`` changes.  Each
wrapper records a span (name, start, end, parent span, op id) in memory
and updates counters at the same boundary.  Calls that happen once per
scanned edge or per reveal (``WeightAssignment.base``, ``sample``,
``out_edges``, ``min_out_subtract``, ``pop``) are aggregated instead of
stored as spans, which keeps a traced run's memory bounded; they still
take part in the self-time bookkeeping of their parents.

Self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict

# spans of these names are aggregated only (never stored one by one)
HOT = frozenset({"weights.base", "weights.sample", "graph.out_edges",
                 "weights.min_out_subtract", "graph.pop"})


class Tracer:
    """Spans, counts and timings of one traced run, kept in memory."""

    def __init__(self):
        self.op = "setup"
        self.spans: list[tuple] = []     # (id, name, start, end, parent id, op)
        self._open: list[list] = []      # frames of the calls now running
        self._next_id = 1
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)   # timed ops only
        self.counts: dict[str, int] = defaultdict(int)
        # name -> [(vertices of the graph the call ran on, seconds)]
        self.sized: dict[str, list[tuple[int, float]]] = defaultdict(list)
        # (op id, name) -> inclusive seconds inside that op
        self.per_op: dict[tuple[str, str], float] = defaultdict(float)
        self.op_vertices: dict[str, int] = {}

    def begin_op(self, op_id: str, vertices: int) -> None:
        self.op = op_id
        self.op_vertices[op_id] = vertices

    def wrap(self, name: str, fn, *, size=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``size(args, result)`` gives the vertex count recorded with the
        call's duration, for the log-log fits; ``after(args, kwargs, result,
        parent)`` updates counters from the call's result.
        """
        keep = name not in HOT
        open_frames = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = open_frames[-1] if open_frames else None
            span_id = 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, name, 0.0]     # id, name, seconds covered by children
            open_frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_frames.pop()
                dur = end - start
                self.calls[name] += 1
                self.incl[name] += dur
                if self.op != "setup":
                    self.self_s[name] += dur - frame[2]
                self.per_op[(self.op, name)] += dur
                if parent is not None:
                    parent[2] += dur
                if keep:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent is not None else 0, self.op))
            if size is not None:
                self.sized[name].append((size(args, result), dur))
            if after is not None:
                after(args, kwargs, result, parent[1] if parent is not None else None)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def write(self, path) -> None:
        """Write every stored span plus the aggregates as one JSON file."""
        payload = {
            "columns": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "aggregates": {n: {"calls": self.calls[n], "incl_s": self.incl[n],
                               "self_s": self.self_s.get(n, 0.0)} for n in sorted(self.calls)},
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer at their attributes.

    ``cleb.algorithms`` imports ``uncontract`` and ``min_out_subtract`` by
    name, so those are patched in the ``algorithms`` namespace as well as
    at home; everything else is looked up through its module or class at
    call time.
    """
    from cleb import algorithms, families, graph, oracle, walks, weights

    counts = tracer.counts

    def n_of_graph(args, result):
        return args[0].n_vertices

    def stack_size(args, result):
        return args[1].n_vertices

    def realized_size(args, result):
        return result.graph.n_vertices

    tracer.patch(graph.ContractionStack, "__init__", "graph.stack_init", size=stack_size)
    tracer.patch(graph.ContractionStack, "contract_cycle", "graph.contract")
    tracer.patch(graph.ContractionStack, "pop", "graph.pop")

    def count_scanned(args, kwargs, result, parent):
        if parent == "weights.min_out_subtract":
            counts["weights.scanned"] += len(result)

    tracer.patch(graph.ContractionStack, "out_edges", "graph.out_edges", after=count_scanned)

    uncontract = tracer.wrap("graph.uncontract", graph.uncontract)
    graph.uncontract = uncontract
    algorithms.uncontract = uncontract
    reveal = tracer.wrap("weights.min_out_subtract", weights.min_out_subtract)
    weights.min_out_subtract = reveal
    algorithms.min_out_subtract = reveal

    tracer.patch(weights.WeightAssignment, "base", "weights.base")

    def count_miss(args, kwargs, result, parent):
        if parent == "weights.base":
            counts["weights.base_misses"] += 1

    for model in (weights.Exponential, weights.Uniform01, weights.Fixed,
                  weights.BoltzmannConductance):
        tracer.patch(model, "sample", "weights.sample", after=count_miss)

    def after_msa(args, kwargs, result, parent):
        counts["algorithms.walks"] += len(result[1])
        counts["algorithms.solved_vertices"] += args[0].n_vertices

    def after_walk(args, kwargs, result, parent):
        if parent != "algorithms.msa":
            counts["algorithms.solved_vertices"] += len(result.steps)

    tracer.patch(algorithms, "cleb_walk_algorithm", "algorithms.msa",
                 size=n_of_graph, after=after_msa)
    tracer.patch(algorithms, "cleb_walk", "algorithms.walk", after=after_walk)
    tracer.patch(algorithms, "recover_branch", "algorithms.recover", size=n_of_graph)

    for family in (families.PathSegment, families.RegularTree, families.LatticeBox,
                   families.GaltonWatson, families.BoundedSubdivision):
        tracer.patch(family, "realize", "families.realize", size=realized_size)

    def after_lcrw(args, kwargs, result, parent):
        counts["walks.lcrw_steps"] += len(result[0].steps)

    def after_lerw(args, kwargs, result, parent):
        counts["walks.lerw_steps"] += result.steps

    def after_escape(args, kwargs, result, parent):
        counts["walks.escape_trials"] += args[2]

    def after_law(args, kwargs, result, parent):
        counts["oracle.law_samples"] += args[2]

    tracer.patch(walks, "lcrw_run", "walks.lcrw", size=n_of_graph, after=after_lcrw)
    tracer.patch(walks, "wilson_lerw", "walks.lerw", after=after_lerw)
    tracer.patch(walks, "lcrw_escape_mc", "walks.escape", after=after_escape)
    tracer.patch(oracle, "msa_distribution", "oracle.law", after=after_law)
    tracer.patch(oracle, "enumerate_arborescences", "oracle.enumerate")


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(mean seconds) against log(vertices).

    Calls are first averaged per vertex count; fewer than two distinct
    sizes give 0.0 (no fit).
    """
    by_size: dict[int, list[float]] = defaultdict(list)
    for n, s in points:
        if n > 0 and s > 0:
            by_size[n].append(s)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(n) for n in by_size]
    ys = [math.log(statistics.fmean(v)) for v in by_size.values()]
    return statistics.linear_regression(xs, ys).slope


def per_op_points(tracer: Tracer, name: str) -> list[tuple[int, float]]:
    """(op vertices, seconds of `name` inside the op) for every timed op."""
    return [(tracer.op_vertices[op], s) for (op, n), s in tracer.per_op.items()
            if n == name and op in tracer.op_vertices]


def layer_metrics(tracer: Tracer, answers: int) -> dict[str, dict]:
    """Every per-layer metric, as {name: {"value", "unit"}}.

    ``answers`` is the number of output values the workload's ops
    delivered and used (probe edges, arborescence edges, recovered branch
    edges).  Metrics of a layer the workload never calls read 0.
    """
    c = tracer.counts
    calls, incl, sized = tracer.calls, tracer.incl, tracer.sized

    def ratio(a, b):
        return a / b if b else 0.0

    reveals = calls["weights.min_out_subtract"]
    base_calls = calls["weights.base"]
    values = {
        "families.realize_s": (incl["families.realize"], "s"),
        "families.realized_vertices":
            (sum(n for n, _ in sized["families.realize"]), "count"),
        "families.probe_answers_per_vertex":
            (ratio(answers, c["algorithms.solved_vertices"]), "ratio"),
        "weights.reveals": (reveals, "count"),
        "weights.reveal_s": (incl["weights.min_out_subtract"], "s"),
        "weights.scanned_per_reveal": (ratio(c["weights.scanned"], reveals), "ratio"),
        "weights.samples": (calls["weights.sample"], "count"),
        "weights.sample_s": (incl["weights.sample"], "s"),
        "weights.base_cache_hit_ratio":
            (ratio(base_calls - c["weights.base_misses"], base_calls), "ratio"),
        "graph.stack_inits": (calls["graph.stack_init"], "count"),
        "graph.stack_init_s": (incl["graph.stack_init"], "s"),
        "graph.contractions": (calls["graph.contract"], "count"),
        "graph.contract_s": (incl["graph.contract"], "s"),
        "graph.uncontracts": (calls["graph.uncontract"], "count"),
        "graph.uncontract_s": (incl["graph.uncontract"], "s"),
        "algorithms.msa_s": (incl["algorithms.msa"], "s"),
        "algorithms.walks_per_msa":
            (ratio(c["algorithms.walks"], calls["algorithms.msa"]), "ratio"),
        "algorithms.walk_s": (incl["algorithms.walk"], "s"),
        "algorithms.recover_s": (incl["algorithms.recover"], "s"),
        "walks.lcrw_steps": (c["walks.lcrw_steps"], "count"),
        "walks.lcrw_s": (incl["walks.lcrw"], "s"),
        "walks.lerw_steps": (c["walks.lerw_steps"], "count"),
        "walks.lerw_s": (incl["walks.lerw"], "s"),
        "walks.escape_trials": (c["walks.escape_trials"], "count"),
        "walks.escape_s": (incl["walks.escape"], "s"),
        "oracle.law_samples": (c["oracle.law_samples"], "count"),
        "oracle.law_s": (incl["oracle.law"], "s"),
        "oracle.enumerate_s": (incl["oracle.enumerate"], "s"),
        "algorithms.msa_s.slope": (loglog_slope(sized["algorithms.msa"]), "slope"),
        "graph.uncontract_s.slope":
            (loglog_slope(per_op_points(tracer, "graph.uncontract")), "slope"),
        "weights.reveal_s.slope":
            (loglog_slope(per_op_points(tracer, "weights.min_out_subtract")), "slope"),
        "families.realize_s.slope": (loglog_slope(sized["families.realize"]), "slope"),
        "algorithms.recover_s.slope": (loglog_slope(sized["algorithms.recover"]), "slope"),
        "graph.stack_init_s.slope": (loglog_slope(sized["graph.stack_init"]), "slope"),
        "walks.lcrw_s.slope": (loglog_slope(sized["walks.lcrw"]), "slope"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def self_time_shares(tracer: Tracer) -> dict[str, float]:
    """Each span name's self time as a share of the ops' traced self time."""
    total = sum(tracer.self_s.values())
    return {n: s / total for n, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
            if total}
