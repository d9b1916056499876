import math
import random

import pytest

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
    lcrw_equals_cleb_check,
    lcrw_escape_mc,
    lcrw_run,
    srw_escape_exact,
    wilson_lerw,
    wilson_sandwich_trial,
)
from cleb.weights import BoltzmannConductance, Fixed, WeightAssignment


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
