import random
from fractions import Fraction
from functools import partial

import pytest

from cleb.errors import GenericityViolationError, NoOutgoingEdgeError, TieDetectedError
from cleb.families import RegularTree, coupled_assignment, parse_family, wired_msa_sequence
from cleb.graph import ContractionStack, build_graph
from cleb.instances import random_instance
from cleb.oracle import brute_force_msa
from cleb.util import derive
from cleb.weights import (
    Exponential,
    Fixed,
    Uniform01,
    WeightAssignment,
    min_out_subtract,
    parse_model_spec,
    sample_weights,
)


def two_edge_graph():
    return build_graph([0, 1], [0], [(1, 0), (1, 0)])


def test_fixed_passthrough():
    g = two_edge_graph()
    assign = sample_weights(Fixed({0: 0.3, 1: 0.7}), g, 0)
    assert assign.base(0) == 0.3 and assign.base(1) == 0.7


def test_same_seed_same_assignment():
    g = two_edge_graph()
    a = sample_weights(Exponential(1.0), g, 99)
    b = sample_weights(Exponential(1.0), g, 99)
    assert [a.base(e) for e in range(2)] == [b.base(e) for e in range(2)]


def test_sampling_is_order_independent():
    g = build_graph([0, 1], [0], [(1, 0)] * 5)
    a = sample_weights(Uniform01(), g, 3)
    b = sample_weights(Uniform01(), g, 3)
    forward = [a.base(e) for e in range(5)]
    backward = [b.base(e) for e in reversed(range(5))][::-1]
    assert forward == backward


def test_uniform_mean_large_sample():
    g = build_graph([0, 1], [0], [(1, 0)] * 100_000)
    assign = sample_weights(Uniform01(), g, 11)
    mean = sum(assign.base(e) for e in range(g.n_edges)) / g.n_edges
    assert abs(mean - 0.5) < 0.01


def test_fixed_exact_tie_rejected_up_front():
    g = two_edge_graph()
    with pytest.raises(GenericityViolationError):
        sample_weights(Fixed({0: 1.0, 1: 1.0}), g, 0)


def test_min_out_subtract_basic():
    g = two_edge_graph()
    stack = ContractionStack(g)
    assign = sample_weights(Fixed({0: 0.3, 1: 0.7}), g, 0)
    edge, pi = min_out_subtract(assign, stack, 1)
    assert (edge, pi) == (0, 0.3)
    assert assign.effective(stack, 0) == 0.0
    assert abs(assign.effective(stack, 1) - 0.4) < 1e-12


def test_min_out_subtract_idempotent_without_contraction():
    g = two_edge_graph()
    stack = ContractionStack(g)
    assign = sample_weights(Fixed({0: 0.3, 1: 0.7}), g, 0)
    min_out_subtract(assign, stack, 1)
    edge, pi = min_out_subtract(assign, stack, 1)
    assert (edge, pi) == (0, 0.0)


def test_min_out_after_contraction_uses_per_lineage_totals():
    # members join the merged vertex carrying different prior subtractions
    g = build_graph([0, 1, 2], [0],
                    [(1, 2), (2, 1), (1, 0), (2, 0)])
    assign = sample_weights(
        Fixed({0: Fraction(1), 1: Fraction(2), 2: Fraction(10), 3: Fraction(20)}), g, 0)
    stack = ContractionStack(g)
    assert min_out_subtract(assign, stack, 1) == (0, Fraction(1))
    assert min_out_subtract(assign, stack, 2) == (1, Fraction(2))
    record = stack.contract_cycle([0, 1])
    edge, pi = min_out_subtract(assign, stack, record.supervertex)
    assert edge == 2 and pi == Fraction(9)   # 10 - 1 beats 20 - 2
    assert assign.effective(stack, 3) == Fraction(9)


def test_min_out_no_edges():
    g = build_graph([0, 1, 2], [0], [(1, 0)])
    stack = ContractionStack(g)
    assign = sample_weights(Fixed({0: 0.5}), g, 0)
    with pytest.raises(NoOutgoingEdgeError):
        min_out_subtract(assign, stack, 2)


def test_tie_at_the_minimum_detected_and_recorded():
    g = build_graph([0, 1], [0], [(1, 0), (1, 0), (1, 0)])
    assign = WeightAssignment(Fixed({0: 1.0, 1: 1.0 + 1e-15, 2: 3.0}), 0)
    with pytest.raises(TieDetectedError):
        min_out_subtract(assign, ContractionStack(g), 1)
    assert len(assign.collisions) == 1


def test_integer_relation_surfaces_as_tie():
    # weights 1, 2, 3 with the run driving a 1+2 vs 3 comparison
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0), (1, 0)])
    assign = WeightAssignment(
        Fixed({0: Fraction(1), 1: Fraction(2), 2: Fraction(4), 3: Fraction(3)}), 0)
    stack = ContractionStack(g)
    min_out_subtract(assign, stack, 1)
    min_out_subtract(assign, stack, 2)
    record = stack.contract_cycle([0, 1])
    # out of the merged vertex: 4 - 2 = 2 and 3 - 1 = 2 collide exactly
    with pytest.raises(TieDetectedError):
        min_out_subtract(assign, stack, record.supervertex)
    assert assign.collisions


def test_random_runs_stay_generic():
    from cleb.algorithms import original_cleb

    for i in range(100):
        g, _ = random_instance(derive(404, i))
        assign = sample_weights(Exponential(1.0), g, derive(405, i))
        original_cleb(g, assign)
        assert not assign.collisions


def test_msa_invariant_under_constant_shift_at_one_vertex():
    for i in range(30):
        g, assign = random_instance(derive(777, i), max_inner=4)
        base = brute_force_msa(g, assign).edge_set()
        v = next(v for v in g.vertices if v not in g.boundary and g.out_edges(v))
        shifted_values = {e: assign.base(e) + (Fraction(17, 3) if g.tails[e] == v else 0)
                          for e in range(g.n_edges)}
        shifted = WeightAssignment(Fixed(shifted_values), 0)
        assert brute_force_msa(g, shifted).edge_set() == base


def _bits(assign, m):
    return [assign.base(e).hex() for e in range(m)]


def _count_scalar_samples(monkeypatch) -> list:
    calls = []
    scalar = Exponential.sample
    monkeypatch.setattr(Exponential, "sample",
                        lambda self, seed, key: calls.append(key) or scalar(self, seed, key))
    return calls


def _refuse_scalar_sampling(monkeypatch):
    def refuse(self, seed, key):
        raise AssertionError("scalar sample on the batched path")

    for model in (Exponential, Uniform01):
        monkeypatch.setattr(model, "sample", refuse)


@pytest.mark.parametrize("model", [Exponential(1.0), Uniform01()], ids=["exp1", "unif01"])
def test_batch_sampling_is_bitwise_the_per_edge_sampling(model, monkeypatch):
    cases = []
    for spec, radius in (("lattice:2", 10), ("tree:2", 8), ("path", 50)):
        real = parse_family(spec).realize(radius)
        cases.append((partial(coupled_assignment, model, derive(61, spec), real),
                      real.graph.n_edges))
    for i in range(20):
        g, _ = random_instance(derive(62, i))
        cases.append((partial(sample_weights, model, g, derive(63, i)), g.n_edges))
    lazy = [_bits(make(), m) for make, m in cases]
    _refuse_scalar_sampling(monkeypatch)
    for (make, m), expected in zip(cases, lazy):
        batch = make()
        batch.sample_all(m)
        assert _bits(batch, m) == expected


def test_keys_of_64_bits_or_more_fold_in_the_batch(monkeypatch):
    cases = []
    for spec, radius in (("lattice:3", 3), ("lattice:4", 2)):
        real = parse_family(spec).realize(radius)
        assert max(real.canonical) >= 1 << 64
        m = real.graph.n_edges
        cases.append((real, m, _bits(coupled_assignment(Exponential(1.0), 7, real), m)))
    _refuse_scalar_sampling(monkeypatch)
    for real, m, expected in cases:
        assign = coupled_assignment(Exponential(1.0), 7, real)
        assign.sample_all(m)
        assert _bits(assign, m) == expected


def test_full_solves_sample_every_weight_in_one_batch(monkeypatch):
    from cleb.algorithms import cleb_walk_algorithm, original_cleb, sequential_cleb

    real = parse_family("lattice:2").realize(8)
    g = real.graph
    _refuse_scalar_sampling(monkeypatch)
    order = [v for v in g.vertices if v not in g.boundary]
    arbs = [solve(g, coupled_assignment(Exponential(1.0), 808, real))[0].edge_set()
            for solve in (original_cleb, cleb_walk_algorithm,
                          lambda g, a: sequential_cleb(g, a, order[::-1]))]
    assert arbs[0] == arbs[1] == arbs[2]


def test_probe_walks_sample_lazily(monkeypatch):
    calls = _count_scalar_samples(monkeypatch)
    wired_msa_sequence(RegularTree(2), Exponential(1.0), [12], [1], 909)
    assert 0 < len(calls) < RegularTree(2).realize(12).graph.n_edges


def test_parse_model_specs(tmp_path):
    assert isinstance(parse_model_spec("exp1"), Exponential)
    assert isinstance(parse_model_spec("unif01"), Uniform01)
    path = tmp_path / "w.json"
    path.write_text('{"0": 1.5, "1": 2.5}')
    fixed = parse_model_spec(f"fixed:{path}")
    assert fixed.values[0] == 1.5
    boltz = parse_model_spec(f"boltzmann:{path}:2.0")
    assert boltz.beta == 2.0
