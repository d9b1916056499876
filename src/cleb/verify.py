"""Named verification suites with pinned seeds and deterministic reports.

Each suite draws every instance and random stream from one master seed,
so reruns produce byte-identical report bodies.  The acceptance tests and
the CLI ``verify`` subcommand both run these functions.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field

from .errors import UnknownSuiteError
from .util import derive

DEFAULT_SEED = 20250810

SUITE_NAMES = ("oracle-equivalence", "color-invariance", "invasion", "sandwich",
               "escape", "monotonicity", "perturbation")


@dataclass
class SuiteResult:
    name: str
    seed: int
    ok: bool
    summary: str
    rows: list[dict] = field(default_factory=list)

    def report_text(self, fmt: str = "csv") -> str:
        """Deterministic report body (same seed, same bytes).  CSV columns
        are the first row's keys, in order; every row has the same keys."""
        if fmt == "json":
            payload = {"suite": self.name, "seed": self.seed, "ok": self.ok,
                       "summary": self.summary, "rows": self.rows}
            return json.dumps(payload, indent=1, sort_keys=True) + "\n"
        columns = list(self.rows[0]) if self.rows else []
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row[c]) for c in columns) + "\n")
        return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, frozenset):
        return " ".join(str(x) for x in sorted(value))
    return str(value)


def run_suite(name: str, seed: int = DEFAULT_SEED, fast: bool = False) -> SuiteResult:
    try:
        fn = _SUITES[name]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}") from None
    return fn(seed, fast)


def _suite_oracle_equivalence(seed: int, fast: bool) -> SuiteResult:
    from .algorithms import cleb_walk_algorithm, original_cleb, sequential_cleb
    from .instances import random_instance
    from .oracle import brute_force_msa

    n = 20 if fast else 200
    rows = []
    ok = True
    for i in range(n):
        graph, assign = random_instance(derive(seed, "oracle", i))
        truth = brute_force_msa(graph, assign).edge_set()
        inner = [v for v in graph.vertices if v not in graph.boundary]
        rng = random.Random(derive(seed, "oracle-order", i))
        orders = [inner, inner[::-1], rng.sample(inner, len(inner))]
        results = {"original": original_cleb(graph, assign)[0].edge_set()}
        for label, order in zip(("seq_fwd", "seq_rev", "seq_rand"), orders):
            results[label] = sequential_cleb(graph, assign, order)[0].edge_set()
        results["walk_algorithm"] = cleb_walk_algorithm(graph, assign)[0].edge_set()
        row = {"instance": i, "vertices": graph.n_vertices, "edges": graph.n_edges}
        for label, edges in results.items():
            row[label] = edges == truth
        ok = ok and all(edges == truth for edges in results.values())
        rows.append(row)
    passed = sum(1 for r in rows if all(r[k] for k in
                 ("original", "seq_fwd", "seq_rev", "seq_rand", "walk_algorithm")))
    return SuiteResult("oracle-equivalence", seed, ok, f"{passed}/{n} instances match", rows)


def _suite_color_invariance(seed: int, fast: bool) -> SuiteResult:
    from .algorithms import original_cleb, sequential_cleb
    from .instances import random_instance

    n = 10 if fast else 100
    rows = []
    matches = 0
    for i in range(n):
        graph, assign = random_instance(derive(seed, "color", i))
        reference = original_cleb(graph, assign)[1].colored_exposure_set()
        inner = [v for v in graph.vertices if v not in graph.boundary]
        rng = random.Random(derive(seed, "color-order", i))
        orders = [inner, inner[::-1], rng.sample(inner, len(inner))]
        sets = [reference]
        for order in orders:
            sets.append(sequential_cleb(graph, assign, order)[1]
                        .colored_exposure_set())
        same = len(set(sets)) == 1
        matches += 4 if same else sum(1 for s in sets if s == reference)
        rows.append({"instance": i, "runs": 4, "identical": same})
    ok = all(r["identical"] for r in rows)
    return SuiteResult("color-invariance", seed, ok, f"{matches}/{4 * n} colored sets match",
                       rows)


def _suite_invasion(seed: int, fast: bool) -> SuiteResult:
    from .instances import random_symmetric_instance
    from .walks import invasion_equivalence_check

    n = 10 if fast else 100
    rows = []
    for i in range(n):
        graph, reversal, weights, start = random_symmetric_instance(derive(seed, "invasion", i))
        verdict = invasion_equivalence_check(graph, reversal, weights, start)
        rows.append({"instance": i, "fresh_edges": verdict.walk_fresh_count,
                     "prefixes_equal": verdict.equal_prefixes,
                     "tree_is_mst": verdict.invasion_matches_kruskal})
    ok = all(r["prefixes_equal"] and r["tree_is_mst"] for r in rows)
    good = sum(1 for r in rows if r["prefixes_equal"] and r["tree_is_mst"])
    return SuiteResult("invasion", seed, ok, f"{good}/{n} instances equal", rows)


SANDWICH_BETAS = (2.0, 5.0, 10.0, 20.0)


def _suite_sandwich(seed: int, fast: bool) -> SuiteResult:
    from .instances import SANDWICH_FIXTURES, load_fixture, load_fixture_meta
    from .walks import first_epoch_contraction_sets, wilson_lerw, wilson_sandwich_trial
    from .weights import BoltzmannConductance, Fixed, WeightAssignment

    trials = 100 if fast else 400
    witness_runs = 200 if fast else 1000
    rows = []
    ok = True
    for name in SANDWICH_FIXTURES:
        graph, weights = load_fixture(name)
        start = load_fixture_meta(name)["start"]
        results, _ = wilson_sandwich_trial(graph, weights, start, SANDWICH_BETAS,
                                           trials, derive(seed, "sandwich", name))
        freqs = [r.frequency for r in results]
        monotone = all(
            freqs[i + 1] >= freqs[i]
            - 3 * math.hypot(results[i].stderr, results[i + 1].stderr)
            for i in range(len(freqs) - 1))
        high_end = freqs[-1] >= 0.95
        ok = ok and monotone and high_end
        for r in results:
            rows.append({"fixture": name, "beta": r.beta, "trials": r.trials,
                         "frequency": r.frequency, "stderr": r.stderr,
                         "capped": r.capped, "monotone": monotone,
                         "meets_high_end": high_end})
    graph, weights = load_fixture("strict_sandwich")
    meta = load_fixture_meta("strict_sandwich")
    start, witness = meta["start"], meta["witness_edge"]
    assign = WeightAssignment(Fixed(dict(weights)), 0)
    lower, _ = first_epoch_contraction_sets(graph, assign, start)
    conductances = WeightAssignment(BoltzmannConductance(weights, 20.0), 0)
    hits = 0
    for i in range(witness_runs):
        run = wilson_lerw(graph, conductances, start, derive(seed, "witness", i))
        if witness in run.erased_before_leaving_start and witness not in lower:
            hits += 1
    witness_freq = hits / witness_runs
    ok = ok and witness_freq >= 0.9
    rows.append({"fixture": "strict_sandwich", "beta": 20.0, "trials": witness_runs,
                 "frequency": witness_freq, "stderr": 0.0, "capped": 0,
                 "monotone": True, "meets_high_end": witness_freq >= 0.9})
    return SuiteResult("sandwich", seed, ok,
                       f"5 fixtures over betas {SANDWICH_BETAS}, witness freq {witness_freq:.3f}",
                       rows)


def _suite_escape(seed: int, fast: bool) -> SuiteResult:
    from .instances import glued_tree_fixtures
    from .walks import lcrw_escape_mc, srw_escape_exact

    trials = 2000 if fast else 100_000
    rows = []
    ok = True
    for name, tree in glued_tree_fixtures():
        for v in tree.vertices:
            if v in tree.boundary:
                continue
            exact = srw_escape_exact(tree, v)
            estimate, stderr = lcrw_escape_mc(tree, v, trials,
                                              derive(seed, "escape", name, v))
            good = bool(estimate >= exact - 3 * stderr)
            ok = ok and good
            rows.append({"fixture": name, "start": v, "srw_exact": exact,
                         "lcrw_estimate": estimate, "stderr": stderr, "ok": good})
    good = sum(1 for r in rows if r["ok"])
    return SuiteResult("escape", seed, ok, f"{good}/{len(rows)} starts satisfy the bound", rows)


def _monotonicity_pools():
    from .families import PathSegment, RegularTree

    tree = RegularTree(3)
    pool = list(tree.realize(3).probe_map)  # depths 0-2, breadth first
    return [("tree:3", tree, [3, 4, 5, 6, 7], pool),
            ("path", PathSegment(), [10, 20, 40, 80, 160], list(range(-9, 10)))]


def _suite_monotonicity(seed: int, fast: bool) -> SuiteResult:
    from .families import connectivity_monotonicity_check
    from .weights import Exponential

    seeds = 5 if fast else 50
    rows = []
    total_violations = 0
    for label, family, radii, pool in _monotonicity_pools():
        for s in range(seeds):
            rng = random.Random(derive(seed, "mono-pairs", label, s))
            pairs = []
            while len(pairs) < 10:
                pair = tuple(rng.sample(pool, 2))
                pairs.append(pair)
            verdict = connectivity_monotonicity_check(
                family, Exponential(1.0), radii, pairs, derive(seed, "mono", label, s))
            total_violations += len(verdict.violations)
            rows.append({"family": label, "seed_index": s, "pairs": len(pairs),
                         "radii": len(radii), "violations": len(verdict.violations)})
    ok = total_violations == 0
    return SuiteResult("monotonicity", seed, ok, f"{total_violations} violations", rows)


def _suite_perturbation(seed: int, fast: bool) -> SuiteResult:
    from .instances import eligible_perturbation
    from .oracle import perturb_and_verify

    n = 10 if fast else 100
    rows = []
    matched = 0
    for mode in ("lemma1", "lemma2"):
        for i in range(n):
            graph, assign, v, e1, e2 = eligible_perturbation(derive(seed, "perturb", mode, i))
            outcome = perturb_and_verify(graph, assign, v, e1, e2, mode,
                                         jitter_seed=derive(seed, "jitter", mode, i))
            matched += outcome.matched
            rows.append({"mode": mode, "case": i, "vertex": v, "swap_out": e1,
                         "swap_in": e2, "matched": outcome.matched})
    ok = matched == 2 * n
    return SuiteResult("perturbation", seed, ok, f"{matched}/{2 * n} perturbations match", rows)


_SUITES = {
    "oracle-equivalence": _suite_oracle_equivalence,
    "color-invariance": _suite_color_invariance,
    "invasion": _suite_invasion,
    "sandwich": _suite_sandwich,
    "escape": _suite_escape,
    "monotonicity": _suite_monotonicity,
    "perturbation": _suite_perturbation,
}
