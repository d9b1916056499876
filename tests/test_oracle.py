import math
from fractions import Fraction

import pytest

from cleb import oracle
from cleb.errors import PreconditionViolatedError, TooLargeError
from cleb.graph import Arborescence, build_graph
from cleb.instances import eligible_perturbation, load_fixture, load_fixture_meta, random_instance
from cleb.oracle import (
    arborescence_count_determinant,
    brute_force_msa,
    enumerate_arborescences,
    msa_distribution,
    msa_event_probability,
    perturb_and_verify,
)
from cleb.util import derive
from cleb.weights import Exponential, Fixed, Uniform01, sample_weights


def two_cycle_instance():
    # u=1, v=2: edges u->bnd, v->bnd, u->v, v->u
    return build_graph([0, 1, 2], [0], [(1, 0), (2, 0), (1, 2), (2, 1)])


def test_enumerate_single_choice():
    g = build_graph([0, 1, 2], [0], [(1, 0), (2, 0)])
    assert len(enumerate_arborescences(g)) == 1


def test_enumerate_two_cycle_gives_three():
    arbs = enumerate_arborescences(two_cycle_instance())
    signatures = {tuple(sorted(a.edge_set())) for a in arbs}
    assert signatures == {(0, 1), (0, 3), (1, 2)}


def test_enumerate_counts_match_determinant():
    # complete bidirected triangle plus boundary edges
    edges = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 0), (2, 0), (3, 0)]
    g = build_graph([0, 1, 2, 3], [0], edges)
    assert len(enumerate_arborescences(g)) == arborescence_count_determinant(g)
    for i in range(30):
        gr, _ = random_instance(derive(2024, i))
        assert len(enumerate_arborescences(gr)) == arborescence_count_determinant(gr)


def test_enumerate_respects_cap():
    g = build_graph([0, 1], [0], [(1, 0)] * 8)
    with pytest.raises(TooLargeError):
        enumerate_arborescences(g, cap=4)


def test_brute_force_two_cycle_example():
    g = two_cycle_instance()
    assign = sample_weights(
        Fixed({0: Fraction(5), 1: Fraction(1), 2: Fraction(2), 3: Fraction(9)}), g, 0)
    best = brute_force_msa(g, assign)
    assert best.edge_set() == {1, 2}
    totals = sorted(sum(assign.base(e) for e in a.edge_set())
                    for a in enumerate_arborescences(g))
    assert totals == [Fraction(3), Fraction(6), Fraction(14)]


def test_brute_force_minimal_by_definition():
    for i in range(30):
        g, assign = random_instance(derive(14, i))
        best = brute_force_msa(g, assign)
        best_total = sum(assign.base(e) for e in best.edge_set())
        for arb in enumerate_arborescences(g):
            assert best_total <= sum(assign.base(e) for e in arb.edge_set())


def test_event_probability_certain_when_unique():
    g = build_graph([0, 1], [0], [(1, 0)])
    est, _ = msa_event_probability(g, Arborescence({1: 0}), Exponential(1.0), 1000, 5)
    assert est == 1.0


def test_event_probability_rejects_non_arborescence():
    g = two_cycle_instance()
    with pytest.raises(PreconditionViolatedError):
        msa_event_probability(g, Arborescence({1: 2, 2: 3}), Exponential(1.0), 100, 5)


def test_distribution_normalizes_and_is_deterministic():
    g = two_cycle_instance()
    rep1, _ = msa_distribution(g, Uniform01(), 20_000, 99)
    rep2, _ = msa_distribution(g, Uniform01(), 20_000, 99)
    assert math.isclose(sum(c.freq for c in rep1.cells), 1.0)
    assert [c.count for c in rep1.cells] == [c.count for c in rep2.cells]


def test_distribution_gap_fixture_brackets_closed_forms():
    graph, _ = load_fixture("distribution_gap")
    meta = load_fixture_meta("distribution_gap")
    target_edges = set(meta["target_arborescence"])
    target = next(a for a in enumerate_arborescences(graph)
                  if a.edge_set() == target_edges)
    est_e, se_e = msa_event_probability(graph, target, Exponential(1.0), 150_000, 3)
    est_u, se_u = msa_event_probability(graph, target, Uniform01(), 150_000, 4)
    assert abs(est_e - 1 / 9) < 4 * se_e + 1e-9
    assert abs(est_u - 7 / 60) < 4 * se_u + 1e-9
    assert est_e < est_u


def test_perturb_parallel_boundary_edges():
    # two parallel edges to the boundary; raising the cheaper one must
    # hand the minimum to the other
    g = build_graph([0, 1], [0], [(1, 0), (1, 0)])
    assign = sample_weights(Fixed({0: Fraction(1), 1: Fraction(2)}), g, 0)
    out = perturb_and_verify(g, assign, 1, 0, 1, "lemma1")
    assert out.matched
    assert out.recovered == frozenset({1})


def test_perturb_preconditions():
    g = build_graph([0, 1, 2], [0], [(1, 0), (1, 2), (2, 1), (2, 0)])
    assign = sample_weights(
        Fixed({0: Fraction(1), 1: Fraction(5), 2: Fraction(7), 3: Fraction(2)}), g, 0)
    with pytest.raises(PreconditionViolatedError):
        perturb_and_verify(g, assign, 1, 1, 0, "lemma1")  # e1 not in the minimum
    with pytest.raises(PreconditionViolatedError):
        perturb_and_verify(g, assign, 1, 0, 0, "lemma1")  # e2 == e1


def test_perturb_batches_match():
    for mode in ("lemma1", "lemma2"):
        for i in range(25):
            g, assign, v, e1, e2 = eligible_perturbation(derive(808, mode, i))
            out = perturb_and_verify(g, assign, v, e1, e2, mode,
                                     jitter_seed=derive(809, i))
            assert out.matched, (mode, i)


# -- exactness pins of the law sampler (recorded before chunks were sized
# by cells and ties were found from argmin)

LAW_COUNTS = {
    "exp1": [11191, 8290, 8259, 11089, 11257, 11036, 8366, 8241, 11175, 11099],
    "unif01": [11593, 8473, 8301, 10813, 10853, 11606, 8385, 8342, 10656, 10981],
}


@pytest.mark.parametrize("spec", sorted(LAW_COUNTS))
def test_law_counts_are_pinned(spec):
    graph, _ = load_fixture("distribution_gap")
    model = Exponential(1.0) if spec == "exp1" else Uniform01()
    report, _ = msa_distribution(graph, model, 100_003, derive(2104, spec))
    assert [c.count for c in report.cells] == LAW_COUNTS[spec]


def _tie_first_draws(monkeypatch, seed):
    """Copy edge 3's weight onto edge 4 (both leave vertex 2) in the
    draws under the call's own seed, so many rows tie exactly; the
    redraws under derived seeds stay untouched."""
    real = oracle._sample_weight_matrix

    def tied(model, s, rows, n_edges):
        weights = real(model, s, rows, n_edges)
        if s == seed:
            weights[:, 4] = weights[:, 3]
        return weights

    monkeypatch.setattr(oracle, "_sample_weight_matrix", tied)


TIED_COUNTS = [1321, 256, 279, 356, 350, 1263, 273, 241, 309, 352]


def test_forced_ties_are_redrawn_by_global_row(monkeypatch):
    graph, _ = load_fixture("distribution_gap")
    assert graph.tails[3] == graph.tails[4] == 2
    seed = derive(2105)
    _tie_first_draws(monkeypatch, seed)
    for cells in (10, 70, 4096, 1 << 16):  # 1, 7, 409 and all 5,000 rows per chunk
        monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        report, _ = msa_distribution(graph, Exponential(1.0), 5000, seed)
        assert [c.count for c in report.cells] == TIED_COUNTS


def test_law_counts_do_not_depend_on_the_chunk_size(monkeypatch):
    graph, _ = load_fixture("distribution_gap")
    width = max(graph.n_edges, len(enumerate_arborescences(graph)))
    counts = []
    for rows in (1, 7, 4096, 3001):  # the last is one chunk of all rows
        monkeypatch.setattr(oracle, "CHUNK_CELLS", rows * width)
        report, _ = msa_distribution(graph, Uniform01(), 3001, 2106)
        counts.append([c.count for c in report.cells])
    assert counts[1:] == counts[:1] * 3
