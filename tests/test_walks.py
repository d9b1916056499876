import hashlib
import math
import random

import numpy as np
import pytest

from cleb.algorithms import cleb_walk
from cleb.errors import ConfigError, PreconditionViolatedError, TieDetectedError
from cleb.graph import build_graph, future_edges
from cleb.instances import random_symmetric_instance
from cleb.oracle import brute_force_msa
from cleb.util import derive
from cleb.walks import (
    build_symmetric_graph,
    first_epoch_contraction_sets,
    glued_tree,
    invasion_equivalence_check,
    invasion_percolation,
    kruskal_mst,
    lcrw_escape_mc,
    lcrw_run,
    srw_escape_exact,
    wilson_lerw,
    wilson_sandwich_trial,
)
from cleb.weights import BoltzmannConductance, Exponential, Fixed, WeightAssignment


def bidirected(vertices, boundary, undirected, weights=None):
    w = weights or list(range(1, len(undirected) + 1))
    return build_symmetric_graph(vertices, boundary, undirected, w)


# -- loop-contracting walk ------------------------------------------------


def test_lcrw_single_edge():
    g, _, _ = bidirected([0, 1], [0], [(1, 0)])
    trace, _ = lcrw_run(g, 1, 100, 1)
    assert trace.terminal == "hit_boundary"
    assert len(trace.steps) == 1


def test_lcrw_traverses_each_oriented_edge_at_most_once():
    for i in range(30):
        g, _, _, start = random_symmetric_instance(derive(616, i))
        trace, _ = lcrw_run(g, start, 10_000, derive(617, i))
        assert len(trace.exposed) == len(set(trace.exposed))


def test_lcrw_contraction_shrinks_path_by_cycle_length_minus_one():
    for i in range(30):
        g, _, _, start = random_symmetric_instance(derive(618, i))
        trace, _ = lcrw_run(g, start, 10_000, derive(619, i))
        prev = 0
        for s in trace.steps:
            if s.event == "contract":
                assert s.path_len - prev == -(s.cycle_len - 1)
            prev = s.path_len


def test_lcrw_triangle_against_enumerated_chain():
    """First two steps of the walk on a triangle, versus exact enumeration:
    1/deg(start), then 1/deg(head) in the unchanged view."""
    g, _, _ = bidirected([0, 1, 2, 3], [0], [(1, 2), (2, 3), (3, 1), (1, 0)])
    counts = {}
    n = 30_000
    for i in range(n):
        trace, _ = lcrw_run(g, 1, 2, derive(333, i))
        key = tuple(trace.exposed[:2])
        counts[key] = counts.get(key, 0) + 1
    deg = {v: len(g.out_edges(v)) for v in g.vertices}
    for key, c in counts.items():
        first = key[0]
        if len(key) == 1:
            assert g.heads[first] == 0
            expect = 1 / deg[1]
        else:
            expect = (1 / deg[1]) * (1 / deg[g.heads[first]])
        p = c / n
        assert abs(p - expect) < 4 * math.sqrt(expect * (1 - expect) / n)


def lcrw_equals_cleb_check(graph, start, trials, seed, step_cap=10_000):
    """Total-variation distance between exposed-edge-sequence laws.

    Runs the uniform loop-contracting walk and the contracting walk under
    fresh Exponential(1) weights `trials` times each and compares the
    empirical distributions of the full exposed-edge sequence.  Returns
    (tv, stderr_scale, support); the natural pass bound is
    tv <= 3 * stderr_scale.
    """
    counts_l = {}
    counts_c = {}
    for i in range(trials):
        trace, _ = lcrw_run(graph, start, step_cap, derive(seed, "tv-l", i))
        key = tuple(trace.exposed)
        counts_l[key] = counts_l.get(key, 0) + 1
        assign = WeightAssignment(Exponential(1.0), derive(seed, "tv-c", i))
        rec = cleb_walk(graph, assign, start, step_cap=step_cap)
        key = tuple(rec.exposed)
        counts_c[key] = counts_c.get(key, 0) + 1
    support = set(counts_l) | set(counts_c)
    tv = 0.5 * sum(abs(counts_l.get(k, 0) - counts_c.get(k, 0)) / trials for k in support)
    stderr_scale = math.sqrt(len(support) / trials)
    return tv, stderr_scale, len(support)


def test_lcrw_law_matches_contracting_walk():
    g, _, _ = bidirected([0, 1, 2], [0], [(1, 2), (1, 0), (2, 0)])
    tv, scale, support = lcrw_equals_cleb_check(g, 1, 4000, 11)
    assert tv <= 3 * scale
    chain = build_graph([0, 1, 2], [0], [(1, 2), (2, 0)])
    tv, _, _ = lcrw_equals_cleb_check(chain, 1, 500, 1)
    assert tv == 0.0


# -- escape probabilities -------------------------------------------------


def test_srw_escape_trivial_and_path():
    g1 = glued_tree(1, [2])
    assert srw_escape_exact(g1, 1) == 1.0
    chain = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0), (0, 2)])
    assert abs(srw_escape_exact(chain, 1) - 0.5) < 1e-12


def test_lcrw_escape_certain_on_single_edge():
    g1 = glued_tree(1, [3])
    est, se = lcrw_escape_mc(g1, 1, 2000, 3)
    assert est == 1.0 and se == 0.0


def test_lcrw_escape_on_two_vertex_path_matches_hand_chain():
    chain = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0), (0, 2)])
    est, se = lcrw_escape_mc(chain, 1, 50_000, 5)
    assert abs(est - 0.5) < 4 * se


def test_lcrw_escape_agrees_with_generic_walker():
    tree = glued_tree(2, [2, 2])
    est_fast, se = lcrw_escape_mc(tree, 1, 30_000, 9)
    hits = 0
    n = 30_000
    for i in range(n):
        trace, _ = lcrw_run(tree, 1, 10_000, derive(55, i))
        # the walk returns to its start exactly when a loop folds the whole path
        returned = any(s.event == "contract" and s.cut == 0 for s in trace.steps)
        hits += trace.terminal == "hit_boundary" and not returned
    est_slow = hits / n
    assert abs(est_fast - est_slow) < 4 * (se + math.sqrt(est_slow * (1 - est_slow) / n))


def test_escape_inequality_on_depth3_tree():
    tree = glued_tree(3, [2, 2, 2])
    for v in (1, 2, 4):
        exact = srw_escape_exact(tree, v)
        est, se = lcrw_escape_mc(tree, v, 30_000, derive(66, v))
        assert est >= exact - 3 * se


# -- loop-erased walk and the contraction sandwich ------------------------


def in_tree_conductances(graph, beta=1.0):
    return WeightAssignment(BoltzmannConductance(
        {e: 1.0 for e in range(graph.n_edges)}, beta), 0)


def test_lerw_on_directed_tree_erases_nothing():
    g = build_graph([0, 1, 2, 3], [0], [(1, 2), (2, 0), (3, 2)])
    run = wilson_lerw(g, in_tree_conductances(g), 1, 4)
    assert run.erased == set()
    assert run.branch == [0, 1]


def test_lerw_transition_law_normalizes():
    g, _, _ = bidirected([0, 1, 2], [0], [(1, 2), (1, 0), (2, 0)])
    cond = WeightAssignment(BoltzmannConductance(
        {e: float(w) for e, w in enumerate([0.3, 0.7, 0.2, 0.9, 0.1, 0.5])}, 2.0), 0)
    total = sum(cond.base(e) for e in g.out_edges(1))
    probs = [cond.base(e) / total for e in g.out_edges(1)]
    assert abs(sum(probs) - 1.0) < 1e-12


def test_lerw_beta_zero_matches_uniform_chain_oracle():
    """At beta = 0 transition probabilities are uniform; compare branch law
    with an independent uniform loop-erased sampler."""
    g, _, _ = bidirected([0, 1, 2, 3], [0], [(1, 2), (2, 3), (3, 1), (1, 0)])
    n = 20_000
    counts_a = {}
    for i in range(n):
        run = wilson_lerw(g, in_tree_conductances(g, beta=0.0), 1, derive(71, i))
        key = tuple(run.branch)
        counts_a[key] = counts_a.get(key, 0) + 1

    rng = random.Random(derive(72))
    counts_b = {}
    for _ in range(n):
        path = []
        pos = {1: -1}
        x = 1
        while x != 0:
            e = g.out_edges(x)[rng.randrange(len(g.out_edges(x)))]
            h = g.heads[e]
            j = pos.get(h)
            if j is None:
                path.append(e)
                pos[h] = len(path) - 1
                x = h
            else:
                for edge in path[j + 1:]:
                    pos.pop(g.heads[edge], None)
                del path[j + 1:]
                x = h
        key = tuple(path)
        counts_b[key] = counts_b.get(key, 0) + 1
    support = set(counts_a) | set(counts_b)
    tv = 0.5 * sum(abs(counts_a.get(k, 0) - counts_b.get(k, 0)) / n for k in support)
    assert tv <= 3 * math.sqrt(len(support) / n)


def test_first_epoch_sets_nested():
    from cleb.instances import SANDWICH_FIXTURES, load_fixture, load_fixture_meta

    for name in SANDWICH_FIXTURES + ["strict_sandwich"]:
        graph, weights = load_fixture(name)
        start = load_fixture_meta(name)["start"]
        lower, upper = first_epoch_contraction_sets(
            graph, WeightAssignment(Fixed(dict(weights)), 0), start)
        assert lower <= upper


def test_sandwich_frequencies_rise_with_beta():
    from cleb.instances import load_fixture, load_fixture_meta

    graph, weights = load_fixture("sandwich_bounce")
    start = load_fixture_meta("sandwich_bounce")["start"]
    results, report = wilson_sandwich_trial(graph, weights, start,
                                            [2.0, 20.0], 200, 31)
    assert results[-1].frequency >= results[0].frequency - 3 * math.hypot(
        results[0].stderr, results[-1].stderr)
    assert results[-1].frequency >= 0.9
    assert report.cleb_cycle_edges <= report.cleb_removed_edges


def test_strict_sandwich_witness_edge():
    from cleb.instances import load_fixture, load_fixture_meta

    graph, weights = load_fixture("strict_sandwich")
    meta = load_fixture_meta("strict_sandwich")
    assign = WeightAssignment(Fixed(dict(weights)), 0)
    lower, upper = first_epoch_contraction_sets(graph, assign, meta["start"])
    witness = meta["witness_edge"]
    assert witness in upper and witness not in lower
    cond = WeightAssignment(BoltzmannConductance(weights, 20.0), 0)
    hits = 0
    for i in range(300):
        run = wilson_lerw(graph, cond, meta["start"], derive(88, i))
        hits += witness in run.erased_before_leaving_start
    assert hits / 300 >= 0.9


# -- invasion percolation -------------------------------------------------


def test_invasion_prefers_cheapest_first():
    g, rev, w = bidirected([0, 1, 2], [0], [(1, 0), (1, 2)], [0.7, 0.2])
    seq = invasion_percolation(g, rev, w, 1)
    assert seq.edges[0] == 2  # canonical id of the 0.2 edge


def test_invasion_on_path_is_prefix_growth():
    g, rev, w = bidirected([0, 1, 2, 3], [0],
                           [(1, 2), (2, 3), (3, 0)], [0.1, 0.2, 0.3])
    seq = invasion_percolation(g, rev, w, 1)
    assert seq.edges == [0, 2, 4]


def test_invasion_tie_detected():
    g, rev, w = bidirected([0, 1, 2], [0], [(1, 0), (1, 2)], [0.5, 0.5])
    with pytest.raises(TieDetectedError):
        invasion_percolation(g, rev, w, 1)


def test_invasion_matches_kruskal():
    for i in range(40):
        g, rev, w, start = random_symmetric_instance(derive(414, i))
        seq = invasion_percolation(g, rev, w, start)
        assert frozenset(seq.edges) == kruskal_mst(g, rev, w)


def test_invasion_equivalence_trivial_and_batch():
    g, rev, w = bidirected([0, 1], [0], [(1, 0)])
    verdict = invasion_equivalence_check(g, rev, w, 1)
    assert verdict.equal_prefixes and verdict.invasion_matches_kruskal
    for i in range(40):
        g, rev, w, start = random_symmetric_instance(derive(515, i))
        verdict = invasion_equivalence_check(g, rev, w, start)
        assert verdict.equal_prefixes and verdict.invasion_matches_kruskal


def test_orientation_weight_mismatch_rejected():
    g = build_graph([0, 1], [0], [(1, 0), (0, 1)])
    with pytest.raises(PreconditionViolatedError):
        invasion_percolation(g, [1, 0], {0: 1.0, 1: 2.0}, 1)


def test_wilson_branch_tracks_minimum_at_large_beta():
    vs, es = [0, 1, 2, 3], [(1, 2), (2, 3), (3, 0), (2, 0), (1, 0), (3, 1)]
    w = {0: 0.10, 1: 0.15, 2: 0.12, 3: 0.40, 4: 0.50, 5: 0.45}
    g = build_graph(vs, [0], es)
    msa = brute_force_msa(g, WeightAssignment(Fixed(w), 0))
    fut = future_edges(g, msa, 1)
    cond = WeightAssignment(BoltzmannConductance(w, 20.0), 0)
    hits = sum(wilson_lerw(g, cond, 1, derive(31, i)).branch == fut
               for i in range(300))
    assert hits / 300 >= 0.95


def test_sandwich_betas_sharing_a_stream_key_are_rejected():
    g, _, _ = bidirected([0, 1, 2], [0], [(1, 2), (1, 0), (2, 0)])
    weights = {e: 1.0 + e for e in range(g.n_edges)}
    with pytest.raises(ConfigError):
        wilson_sandwich_trial(g, weights, 1, [2.0, 2.0004], 3, 1)
    results, _ = wilson_sandwich_trial(g, weights, 1, [2.0, 2.5], 3, 1)
    assert [r.beta for r in results] == [2.0, 2.5]


# -- exactness pins: every random stream and draw rule of the kernels ----
# (recorded before the kernels' inner loops were rewritten)


def _lerw_digest(graph, cond, start, seed, boundary=None):
    h = hashlib.sha256()
    for i in range(200):
        run = wilson_lerw(graph, cond, start, derive(seed, i), boundary=boundary)
        h.update(repr((run.branch, sorted(run.erased),
                       sorted(run.erased_before_leaving_start), run.steps)).encode())
    return h.hexdigest()[:16]


LERW_SHA256 = {
    ("sandwich_bounce", 2): "1d07dc388b02a2bd",
    ("sandwich_bounce", 20): "8baabf9c4204fb00",
    ("sandwich_triangle", 2): "e3e1de7c75c50ed3",
    ("sandwich_triangle", 20): "53a74d1f89b8db06",
    ("sandwich_two_stage", 2): "5a51039253b6ec54",
    ("sandwich_two_stage", 20): "27300559ed49cf84",
    ("sandwich_nested", 2): "4132b6c784de8074",
    ("sandwich_nested", 20): "cbac3a79b5f08666",
    ("sandwich_parallel", 2): "3e123ecb6fa4006b",
    ("sandwich_parallel", 20): "556483f09dcd9f08",
    ("strict_sandwich", 2): "e50b03b13cdb1dd8",
    ("strict_sandwich", 20): "1ff3b407dd9febed",
}


@pytest.mark.parametrize("name,beta", sorted(LERW_SHA256))
def test_lerw_runs_are_pinned(name, beta):
    from cleb.instances import load_fixture, load_fixture_meta

    graph, weights = load_fixture(name)
    start = load_fixture_meta(name)["start"]
    cond = WeightAssignment(BoltzmannConductance(weights, float(beta)), 0)
    assert _lerw_digest(graph, cond, start, derive(2101, name, beta)) == LERW_SHA256[name, beta]


def test_lerw_runs_on_a_lattice_box_with_an_extra_stop_vertex_are_pinned():
    from cleb.families import LatticeBox

    family = LatticeBox(2)
    real = family.realize(3)
    graph = real.graph
    origin = family.origin(real)
    stop = set(graph.boundary) | {origin + 2}
    digest = _lerw_digest(graph, in_tree_conductances(graph), origin, 2102, boundary=stop)
    assert digest == "6a41cc1b11ede648"


ESCAPE_SHA256 = {
    "depth1-binary": "87f0d5c5afd68668",
    "depth1-ternary": "87f0d5c5afd68668",
    "depth2-binary": "018cb30a1cb73fee",
    "depth2-ternary": "e12d42933de3b325",
    "depth3-binary": "5b9949254c7715ac",
    "depth3-ternary": "291447685f23f6d4",
    "depth4-binary": "cf4e371966aaff9d",
    "depth4-ternary": "3ce04872b68ef9bb",
    "depth3-mixed-232": "5d25bc2d9a72a8ff",
    "depth4-mixed-3223": "88da6821b9751e32",
}


@pytest.mark.parametrize("name", sorted(ESCAPE_SHA256))
def test_escape_estimates_are_pinned(name):
    from cleb.instances import glued_tree_fixtures

    tree = dict(glued_tree_fixtures())[name]
    out = [lcrw_escape_mc(tree, v, 5000, derive(2103, name, v, s))
           for v in tree.vertices if v not in tree.boundary for s in (1, 2)]
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == ESCAPE_SHA256[name]


# -- the loop-erased walk's branch against its exact law -----------------


def lerw_branch_law(graph, conductances, start):
    """Exact law of the loop-erased branch from start to the boundary.

    Lawler's formula, which holds for any Markov chain: the branch
    e_1 ... e_k through x_0 ... x_{k-1} has probability
    prod p(e_i) * prod G_{A_i}(x_i, x_i), where A_i is the set of inner
    vertices other than x_0 ... x_{i-1} and G_A = (I - P_A)^-1.  p(e) is
    the edge's conductance over its tail's total, so parallel edges count
    apart.  Enumerates every self-avoiding edge path into the boundary.
    """
    inner = [v for v in graph.vertices if v not in graph.boundary]
    index = {v: i for i, v in enumerate(inner)}
    prob = {}
    step = np.zeros((len(inner), len(inner)))
    for v in inner:
        out = graph.out_edges(v)
        total = sum(float(conductances.base(e)) for e in out)
        for e in out:
            prob[e] = float(conductances.base(e)) / total
            if graph.heads[e] in index:
                step[index[v], index[graph.heads[e]]] += prob[e]
    law = {}

    def extend(x, visited, edges, weight):
        keep = [index[v] for v in inner if v not in visited]
        green = np.linalg.inv(np.eye(len(keep)) - step[np.ix_(keep, keep)])
        at = keep.index(index[x])
        weight *= green[at, at]
        for e in graph.out_edges(x):
            h = graph.heads[e]
            if h in graph.boundary:
                law[tuple(edges + [e])] = weight * prob[e]
            elif h != x and h not in visited:
                extend(h, visited | {x}, edges + [e], weight * prob[e])

    extend(start, frozenset(), [], 1.0)
    return law


def _lerw_law_cases():
    from cleb.families import LatticeBox
    from cleb.instances import load_fixture, load_fixture_meta
    from cleb.util import u01

    for name in ("sandwich_bounce", "sandwich_triangle"):
        graph, weights = load_fixture(name)
        start = load_fixture_meta(name)["start"]
        for beta in (2.0, 5.0):
            yield (f"{name}@{beta}", graph,
                   WeightAssignment(BoltzmannConductance(weights, beta), 0), start)
    family = LatticeBox(2)
    real = family.realize(1)
    weights = {e: u01(2107, e) for e in range(real.graph.n_edges)}
    yield ("lattice:2 r=1", real.graph,
           WeightAssignment(BoltzmannConductance(weights, 2.0), 0), family.origin(real))


def test_lerw_branches_follow_lawlers_formula():
    n = 10_000
    for label, graph, cond, start in _lerw_law_cases():
        law = lerw_branch_law(graph, cond, start)
        assert abs(sum(law.values()) - 1.0) <= 1e-12, label
        counts = {}
        for i in range(n):
            branch = tuple(wilson_lerw(graph, cond, start, derive(2108, label, i)).branch)
            counts[branch] = counts.get(branch, 0) + 1
        assert set(counts) <= set(law), label
        tv = 0.5 * sum(abs(counts.get(b, 0) / n - p) for b, p in law.items())
        assert tv <= 0.03, (label, tv)
        for b, p in law.items():
            if p >= 0.01:
                assert abs(counts.get(b, 0) / n - p) <= 4 * math.sqrt(p * (1 - p) / n), (label, b)
