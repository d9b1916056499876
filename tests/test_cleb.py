import hashlib
import json
import random
from fractions import Fraction

import pytest

from cleb.algorithms import (
    HIT_BOUNDARY,
    STEP_CAP,
    cleb_walk,
    cleb_walk_algorithm,
    connectivity_profile,
    original_cleb,
    recover_branch,
    sequential_cleb,
)
from cleb.errors import DisconnectedError, IncompleteWalkError, NotSpanningError
from cleb.families import coupled_assignment, parse_family
from cleb.graph import ContractionStack, build_graph, validate_arborescence
from cleb.instances import random_instance
from cleb.oracle import brute_force_msa
from cleb.util import derive
from cleb.weights import Exponential, Fixed, sample_weights


def fixed(graph, values):
    return sample_weights(Fixed({e: Fraction(v) for e, v in values.items()}), graph, 0)


def test_star_graph_no_contractions():
    g = build_graph([0, 1, 2], [0], [(1, 0), (1, 0), (2, 0)])
    assign = fixed(g, {0: 5, 1: 2, 2: 3})
    arb, log = original_cleb(g, assign)
    assert arb.edge_set() == {1, 2}
    assert not log.records()


def test_original_matches_brute_force_on_random_instances():
    for i in range(60):
        g, assign = random_instance(derive(9001, i))
        truth = brute_force_msa(g, assign).edge_set()
        arb, _ = original_cleb(g, assign)
        assert arb.edge_set() == truth
        assert validate_arborescence(g, arb).ok


def test_sequential_chooser_invariance():
    for i in range(40):
        g, assign = random_instance(derive(9002, i))
        inner = [v for v in g.vertices if v not in g.boundary]
        rng = random.Random(i)
        edge_sets = set()
        for order in (inner, inner[::-1], rng.sample(inner, len(inner))):
            arb, _ = sequential_cleb(g, assign, order)
            edge_sets.add(arb.edge_set())
        assert len(edge_sets) == 1


def test_single_edge_graph():
    g = build_graph([0, 1], [0], [(1, 0)])
    arb, log = sequential_cleb(g, fixed(g, {0: 1}), [1])
    assert arb.edge_set() == {0}
    assert len(log.steps) == 1


def test_disconnected_instance_detected():
    g = build_graph([0, 1, 2], [0], [(1, 0), (2, 1), (1, 2)])
    # vertex 2 only reaches the boundary through 1; fine. Isolate it instead:
    g2 = build_graph([0, 1, 2], [0], [(1, 0), (2, 1), (1, 2)])
    assign = fixed(g2, {0: 5, 1: 1, 2: 2})
    arb, _ = original_cleb(g2, assign)
    assert validate_arborescence(g2, arb).ok
    g3 = build_graph([0, 1, 2], [0], [(1, 2), (2, 1)])
    with pytest.raises(DisconnectedError):
        original_cleb(g3, fixed(g3, {0: 1, 1: 2}))


def test_every_front_end_reports_a_closed_cluster_as_disconnected():
    # 2 and 3 point only at each other: their supervertex has no way out
    g = build_graph([0, 1, 2, 3], [0], [(1, 0), (2, 3), (3, 2)])
    for solve in (lambda a: original_cleb(g, a),
                  lambda a: sequential_cleb(g, a, [1, 2, 3]),
                  lambda a: cleb_walk_algorithm(g, a),
                  lambda a: cleb_walk(g, a, 2)):
        with pytest.raises(DisconnectedError, match="no live outgoing edge"):
            solve(fixed(g, {0: 1, 1: 2, 2: 3}))


def test_colored_sets_match_across_variants():
    for i in range(40):
        g, assign = random_instance(derive(9003, i))
        ref = original_cleb(g, assign)[1].colored_exposure_set()
        inner = [v for v in g.vertices if v not in g.boundary]
        arb, log = sequential_cleb(g, assign, inner[::-1])
        assert log.colored_exposure_set() == ref


def test_tree_shaped_instance_all_color_one():
    g = build_graph([0, 1, 2, 3], [0], [(1, 0), (2, 1), (3, 1)])
    _, log = original_cleb(g, fixed(g, {0: 1, 1: 2, 2: 3}))
    assert log.colored_exposure_set() == {(0, 1), (1, 1), (2, 1)}


def test_contraction_raises_color_level():
    # forced 2-cycle then exit: the post-contraction edge gets color 2
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0)])
    _, log = original_cleb(g, fixed(g, {0: 1, 1: 2, 2: 5}))
    assert log.colors[2] == 2


def test_walk_single_edge():
    g = build_graph([0, 1], [0], [(1, 0)])
    rec = cleb_walk(g, fixed(g, {0: 1}), 1)
    assert rec.terminal == HIT_BOUNDARY
    assert len(rec.steps) == 1
    assert not rec.censored


def test_walk_three_cycle_traversal():
    # directed 3-cycle plus exit; weights force the full loop before leaving
    g = build_graph([0, 1, 2, 3], [0],
                    [(1, 2), (2, 3), (3, 1), (3, 0), (1, 0)])
    assign = fixed(g, {0: 1, 1: 2, 2: 3, 3: 10, 4: 20})
    rec = cleb_walk(g, assign, 1)
    assert rec.terminal == HIT_BOUNDARY
    assert [s.event for s in rec.steps] == ["extend", "extend", "contract", "hit_boundary"]
    epochs = rec.epochs()
    assert epochs[0].tau == 3  # the walk leaves its start after the loop closes
    assert len(epochs[0].loops) == 1


def test_walk_step_cap_is_outcome():
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0), (1, 0)])
    assign = fixed(g, {0: 1, 1: 2, 2: 100, 3: 200})
    rec = cleb_walk(g, assign, 1, step_cap=1)
    assert rec.terminal == STEP_CAP and rec.censored


def test_walk_algorithm_order_invariance():
    for i in range(40):
        g, assign = random_instance(derive(9004, i))
        truth = brute_force_msa(g, assign).edge_set()
        inner = [v for v in g.vertices if v not in g.boundary]
        rng = random.Random(i)
        for order in (inner, inner[::-1], rng.sample(inner, len(inner))):
            arb, _ = cleb_walk_algorithm(g, assign, order)
            assert arb.edge_set() == truth


def test_recover_branch_zero_contractions_is_path():
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 0)])
    rec = cleb_walk(g, fixed(g, {0: 1, 1: 2}), 1)
    gamma, reached = recover_branch(g, rec)
    assert gamma.edge_set() == {0, 1}
    assert reached == {0, 1, 2}


def test_recover_branch_requires_boundary_hit():
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0), (1, 0)])
    assign = fixed(g, {0: 1, 1: 2, 2: 100, 3: 200})
    rec = cleb_walk(g, assign, 1, step_cap=1)
    with pytest.raises(IncompleteWalkError):
        recover_branch(g, rec)


def test_two_epoch_walk_hand_checked():
    """Two bounce loops separated by a permanent edge: the epoch split, the
    loop assignment, and the recovered fragment are all forced by hand."""
    g = build_graph([0, 1, 2, 3, 4], [0],
                    [(1, 2), (2, 1), (1, 3), (2, 3), (3, 4), (4, 3), (4, 0), (3, 0)])
    assign = fixed(g, {0: 1, 1: 2, 2: 10, 3: 12, 4: 3, 5: 4, 6: 30, 7: 25})
    rec = cleb_walk(g, assign, 1)
    assert [s.event for s in rec.steps] == [
        "extend", "contract", "extend", "extend", "contract", "hit_boundary"]
    epochs = rec.epochs()
    assert [(e.tau, e.seed_edge) for e in epochs] == [(2, 2), (5, 7)]
    assert [loop.cycle for loop in epochs[0].loops] == [(0, 1)]
    assert [loop.cycle for loop in epochs[1].loops] == [(4, 5)]
    gamma, _ = recover_branch(g, rec)
    assert gamma.outgoing == {1: 2, 2: 1, 3: 7, 4: 5}
    assert gamma.edge_set() == brute_force_msa(g, assign).edge_set()


def test_recover_branch_contained_in_minimum():
    for i in range(100):
        g, assign = random_instance(derive(9005, i))
        truth = brute_force_msa(g, assign)
        rng = random.Random(i)
        start = rng.choice([v for v in g.vertices if v not in g.boundary])
        rec = cleb_walk(g, assign, start)
        gamma, _ = recover_branch(g, rec)
        assert gamma.edge_set() <= truth.edge_set()
        assert gamma.outgoing[start] == truth.outgoing[start]
        into_boundary = [e for e in gamma.edge_set() if g.heads[e] in g.boundary]
        assert len(into_boundary) == 1


def test_connectivity_profile_trivial_cases():
    g = build_graph([0, 1, 2, 3], [0], [(1, 0), (2, 1), (3, 0)])
    arb, _ = original_cleb(g, fixed(g, {0: 1, 1: 2, 2: 3}))
    bits = connectivity_profile(g, arb, [(2, 1), (1, 3)])
    assert bits == [1, 0]


def test_exposure_log_jsonl_export(tmp_path):
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0)])
    _, log = original_cleb(g, fixed(g, {0: 1, 1: 2, 2: 5}))
    path = tmp_path / "log.jsonl"
    log.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["event"] for r in rows} == {"expose", "contract"}
    contract = next(r for r in rows if r["event"] == "contract")
    assert contract["cycle"] == [0, 1]


def test_subtracted_total_equals_minimum_weight():
    """Duality check on the lazy accounting: the sum of all subtracted
    minima equals the minimum arborescence's total weight, exactly."""
    from cleb.oracle import total_weight

    for i in range(60):
        g, assign = random_instance(derive(9500, i))
        arb, log = original_cleb(g, assign)
        assert sum(s.pi for s in log.steps) == total_weight(assign, arb)


def test_variants_agree_beyond_the_enumeration_cap():
    """At 40 vertices brute force is out of reach; the three front-ends
    must still agree with each other exactly."""
    from cleb.weights import Exponential, sample_weights

    for i in range(5):
        rng = random.Random(derive(9606, i))
        n = 40
        edges = [(v, rng.randrange(v)) for v in range(1, n + 1)]
        for _ in range(150):
            t, h = rng.randint(1, n), rng.randrange(n + 1)
            if t != h:
                edges.append((t, h))
        g = build_graph(list(range(n + 1)), [0], edges)
        assign = sample_weights(Exponential(1.0), g, derive(9607, i))
        a0 = original_cleb(g, assign)[0].edge_set()
        inner = [v for v in g.vertices if v not in g.boundary]
        a1 = sequential_cleb(g, assign, rng.sample(inner, len(inner)))[0].edge_set()
        a2 = cleb_walk_algorithm(g, assign)[0].edge_set()
        assert a0 == a1 == a2


def test_symmetric_weights_recover_the_spanning_tree():
    """With equal weights on both orientations the minimum arborescence is
    the minimum spanning tree oriented at the boundary, so an independent
    tree algorithm verifies the contraction machinery at any size."""
    from cleb.walks import build_symmetric_graph, kruskal_mst
    from cleb.weights import Fixed, WeightAssignment

    for i in range(5):
        rng = random.Random(derive(9909, i))
        n = 30
        und = [(v, rng.randrange(v)) for v in range(1, n + 1)]
        for _ in range(60):
            a, b = rng.randint(1, n), rng.randrange(n + 1)
            if a != b:
                und.append((a, b))
        weights = []
        seen = set()
        for _ in und:
            while True:
                w = Fraction(rng.getrandbits(40) + 1, 1 << 20)
                if w not in seen:
                    seen.add(w)
                    weights.append(w)
                    break
        g, rev, oriented = build_symmetric_graph(list(range(n + 1)), [0], und, weights)
        arb, _ = cleb_walk_algorithm(g, WeightAssignment(Fixed(oriented), 0))
        assert validate_arborescence(g, arb).ok
        assert frozenset(min(e, rev[e]) for e in arb.edge_set()) == kruskal_mst(g, rev, oriented)


def test_walk_exposes_minimum_future_first():
    # the walk's first epoch contains the start vertex's arborescence edge
    for i in range(30):
        g, assign = random_instance(derive(9007, i))
        truth = brute_force_msa(g, assign)
        rng = random.Random(i)
        start = rng.choice([v for v in g.vertices if v not in g.boundary])
        rec = cleb_walk(g, assign, start)
        epoch1 = rec.epochs()[0]
        early = {s.edge for s in rec.log.steps[:epoch1.tau + 1]}
        assert truth.outgoing[start] in early


def _shuffled_order_run(spec, radius):
    """sequential_cleb on a wired ball under exp1, inner vertices in a seeded shuffle."""
    real = parse_family(spec).realize(radius)
    g = real.graph
    assign = coupled_assignment(Exponential(), derive(77, radius), real)
    inner = [v for v in g.vertices if v not in g.boundary]
    return sequential_cleb(g, assign, random.Random(77).sample(inner, len(inner)))


def _log_digest(log):
    h = hashlib.sha256()
    for s in log.steps:
        cycle = s.record.cycle if s.record is not None else ()
        h.update(repr((s.step, s.vertex, s.edge, s.color, cycle)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("spec, radius, digest", [
    ("lattice:2", 10, "655d50fc9fddd29a0722a77e2e4ea324edc45d2b4802e9427a24468c25861715"),
    ("lattice:2", 20, "c04acdfa2a0fd1a7d75eb80fbe2b52bebe77d8858e703afa03516aa01999cdb4"),
    ("tree:2", 8, "4a6647fa1368f78adb9a85b6974cd8bd5d3d956dd31d7e9a5ef3b8f73ab4adca"),
])
def test_order_chooser_exposure_log_is_pinned(spec, radius, digest):
    _, log = _shuffled_order_run(spec, radius)
    assert _log_digest(log) == digest


@pytest.mark.parametrize("radius", [20, 40])
def test_order_chooser_resolves_a_few_times_per_reveal(radius, monkeypatch):
    calls = [0]
    resolve = ContractionStack.resolve

    def counted(self, v):
        calls[0] += 1
        return resolve(self, v)

    monkeypatch.setattr(ContractionStack, "resolve", counted)
    _, log = _shuffled_order_run("lattice:2", radius)
    assert calls[0] <= 4 * len(log.steps)


@pytest.mark.parametrize("radius", [20, 40])
def test_original_cleb_reads_a_few_heads_per_reveal(radius, monkeypatch):
    """The first cycles are found in one pass and later ones only through
    the vertex just revealed, so no reveal rescans the exposed edges."""
    real = parse_family("lattice:2").realize(radius)
    assign = coupled_assignment(Exponential(), derive(77, radius), real)
    calls = [0]
    head = ContractionStack.head

    def counted(self, e):
        calls[0] += 1
        return head(self, e)

    monkeypatch.setattr(ContractionStack, "head", counted)
    _, log = original_cleb(real.graph, assign)
    assert calls[0] <= 4 * len(log.steps)


@pytest.mark.parametrize("spec, radius", [("lattice:2", 30), ("tree:2", 12)])
def test_revelation_order_invariance_at_scale(spec, radius):
    """All minima at once and three sequential orders give one colored
    exposed set and one arborescence, which the walk algorithm also finds."""
    real = parse_family(spec).realize(radius)
    g = real.graph
    assign = coupled_assignment(Exponential(), derive(77, radius), real)
    inner = [v for v in g.vertices if v not in g.boundary]
    shuffled = random.Random(derive(78, radius)).sample(inner, len(inner))
    runs = [original_cleb(g, assign)] + [sequential_cleb(g, assign, order)
                                         for order in (inner, inner[::-1], shuffled)]
    assert len({log.colored_exposure_set() for _, log in runs}) == 1
    assert {arb.edge_set() for arb, _ in runs} == {cleb_walk_algorithm(g, assign)[0].edge_set()}


def test_order_chooser_never_returns_a_supervertex_outside_order():
    g = build_graph([0, 1, 2], [0], [(1, 0), (2, 1)])
    with pytest.raises(NotSpanningError, match="1 was never revealed"):
        sequential_cleb(g, fixed(g, {0: 1, 1: 2}), [2, 5])
