import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleb.algorithms import cleb_walk
from cleb.errors import (
    DisconnectedKeptSetError,
    NotACycleError,
    NotSpanningError,
    RecordNotTopError,
    SelfLoopError,
    TouchesBoundaryError,
    UnknownVertexError,
)
from cleb.graph import (
    Arborescence,
    ContractionStack,
    build_graph,
    load_graph_json,
    dump_graph_json,
    project_edge_set,
    uncontract,
    validate_arborescence,
    wire_boundary,
)
from cleb.families import RegularTree, coupled_assignment
from cleb.util import derive
from cleb.weights import Exponential


def triangle_with_exit():
    # a->b, b->c, c->a plus a->boundary
    return build_graph([0, 1, 2, 3], [0], [(1, 2), (2, 3), (3, 1), (1, 0)])


def test_build_smallest_instance():
    g = build_graph([0, 1], [0], [(1, 0)])
    assert g.n_edges == 1
    assert g.out_edges(1) == [0]


def test_build_triangle_plus_exit():
    g = triangle_with_exit()
    assert g.n_edges == 4


def test_parallel_edges_get_distinct_ids():
    g = build_graph([0, 1], [0], [(1, 0), (1, 0)])
    assert g.out_edges(1) == [0, 1]


def test_build_rejects_self_loop_and_unknown_vertex():
    with pytest.raises(SelfLoopError):
        build_graph([0, 1], [0], [(1, 1)])
    with pytest.raises(UnknownVertexError):
        build_graph([0, 1], [0], [(1, 2)])


def test_contract_triangle_collapses_to_two_vertices():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    record = stack.contract_cycle([0, 1, 2])
    assert stack.n_live_vertices() == 2
    assert stack.tail(3) == record.supervertex
    assert stack.head(3) == 0
    assert sorted(record.removed) == [0, 1, 2]


def test_contract_two_cycle_keeps_parallel_exits():
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (1, 0), (2, 0)])
    stack = ContractionStack(g)
    record = stack.contract_cycle([0, 1])
    live = [e for e in stack.out_edges(record.supervertex)]
    assert sorted(live) == [2, 3]
    assert all(stack.head(e) == 0 for e in live)


def test_contract_rejects_non_cycle_and_boundary():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    with pytest.raises(NotACycleError):
        stack.contract_cycle([0, 1])
    with pytest.raises(TouchesBoundaryError):
        g2 = build_graph([0, 1], [0], [(1, 0), (0, 1)])
        ContractionStack(g2).contract_cycle([0, 1])


def test_uncontract_two_cycle_example():
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (2, 0)])
    stack = ContractionStack(g)
    record = stack.contract_cycle([0, 1])
    arb = Arborescence({record.supervertex: 2})
    result = uncontract(stack, record, arb)
    assert result is arb  # pulled back in place
    assert len(result.outgoing) == 2
    assert validate_arborescence(g, result).ok
    assert result.outgoing[2] == 2  # the exit edge leaves vertex 2


def test_uncontract_requires_top_record_and_spanning_arb():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    record = stack.contract_cycle([0, 1, 2])
    with pytest.raises(NotSpanningError):
        uncontract(stack, record, Arborescence({}))
    stack2 = ContractionStack(triangle_with_exit())
    with pytest.raises(RecordNotTopError):
        uncontract(stack2, record, Arborescence({}))


def test_project_edge_set():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    everything = frozenset(range(4))
    assert project_edge_set(stack, everything) == everything
    stack.contract_cycle([0, 1, 2])
    assert project_edge_set(stack, {0, 1, 2}) == frozenset()
    assert project_edge_set(stack, {0, 3}) == frozenset({3})


def test_vertex_count_drops_by_cycle_length_minus_one():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    before = stack.n_live_vertices()
    stack.contract_cycle([0, 1, 2])
    assert stack.n_live_vertices() == before - 2


def test_pop_restores_previous_view():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    stack.contract_cycle([0, 1, 2])
    stack.pop()
    assert stack.n_live_vertices() == 4
    assert not stack.is_dead(0)
    assert stack.tail(0) == 1 and stack.head(0) == 2


def test_stack_construction_is_lazy():
    real = RegularTree(2).realize(14)
    g = real.graph
    stack = ContractionStack(g)
    assert not stack._out
    assert stack.n_live_vertices() == g.n_vertices
    assign = coupled_assignment(Exponential(), derive(5, 14), real)
    cleb_walk(g, assign, 1, stack=stack)
    assert stack.records
    contracted = sum(len(r.members) for r in stack.records)
    assert len(stack._out) <= contracted


def test_wire_boundary_path_example():
    # path 0-1-2-3 in both orientations, keep {1, 2}
    edges = []
    for a, b in ((0, 1), (1, 2), (2, 3)):
        edges += [(a, b), (b, a)]
    g = build_graph([0, 1, 2, 3], [0], edges)
    wired, origin = wire_boundary(g, [1, 2])
    assert wired.n_vertices == 3
    assert wired.n_edges == 6
    assert len(origin) == 6


def test_wire_boundary_full_keep_is_identity():
    g = triangle_with_exit()
    wired, origin = wire_boundary(g, g.vertices)
    assert wired is g
    assert origin == list(range(g.n_edges))


def test_wire_boundary_rejects_disconnected_kept_set():
    edges = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (2, 1)]
    g = build_graph([0, 1, 2, 3], [0], edges)
    with pytest.raises(DisconnectedKeptSetError):
        wire_boundary(g, [0, 3])


def test_validate_arborescence_catches_cycles_and_gaps():
    g = build_graph([0, 1, 2], [0], [(1, 2), (2, 1), (1, 0)])
    bad = validate_arborescence(g, Arborescence({1: 0, 2: 1}))
    assert not bad.ok and any("cycle" in p for p in bad.problems)
    missing = validate_arborescence(g, Arborescence({1: 2}))
    assert any("lacks" in p for p in missing.problems)
    good = validate_arborescence(g, Arborescence({1: 2, 2: 1}))
    assert good.ok


def test_validate_star():
    g = build_graph([0, 1, 2], [0], [(1, 0), (2, 0)])
    assert validate_arborescence(g, Arborescence({1: 0, 2: 1})).ok


def test_graph_json_round_trip(tmp_path):
    g = triangle_with_exit()
    path = tmp_path / "g.json"
    dump_graph_json(path, g, {0: 1.5, 1: 2.5, 2: 3.5, 3: 0.5})
    loaded, weights, file_ids = load_graph_json(path)
    assert loaded.n_edges == 4
    assert weights[3] == 0.5
    assert file_ids == [0, 1, 2, 3]


def test_graph_json_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [0, 1], "boundary": [0], '
                    '"edges": [{"id": 0, "tail": 1, "head": 0}, '
                    '{"id": 0, "tail": 1, "head": 0}]}')
    from cleb.errors import DuplicateEdgeIdError

    with pytest.raises(DuplicateEdgeIdError):
        load_graph_json(path)


# -- randomized structure round trips ------------------------------------


def random_stack_and_cycles(seed, n=6, extra=10):
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n + 1)]
    for _ in range(extra):
        t = rng.randint(1, n)
        h = rng.randrange(n + 1)
        if t != h:
            edges.append((t, h))
    return build_graph(list(range(n + 1)), [0], edges)


def find_directed_cycle(stack):
    """Any directed cycle in the current view, by successor search."""
    for start in stack.live_vertices():
        path = []
        seen = {}
        v = start
        while True:
            outs = [e for e in stack.out_edges(v)
                    if stack.head(e) not in stack.base.boundary]
            if not outs:
                break
            e = outs[0]
            h = stack.head(e)
            if h in seen:
                return [p for _, p in path[seen[h]:]] + [e]
            seen[v] = len(path)
            path.append((v, e))
            v = h
            if len(path) > stack.n_live_vertices():
                break
    return None


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_contract_uncontract_round_trip(seed):
    """Contract any findable cycle, pick any spanning arborescence of the
    contracted view, and uncontraction must give a spanning arborescence of
    the base whose edges are the images plus all but one cycle edge."""
    g = random_stack_and_cycles(seed)
    stack = ContractionStack(g)
    cycle = find_directed_cycle(stack)
    if cycle is None:
        return
    record = stack.contract_cycle(cycle)
    boundary = {stack.resolve(b) for b in g.boundary}
    outgoing = {}
    ok = True
    for v in stack.live_vertices():
        if v in boundary:
            continue
        outs = stack.out_edges(v)
        if not outs:
            ok = False
            break
        outgoing[v] = min(outs)
    if not ok or _has_cycle(stack, outgoing):
        return
    arb = uncontract(stack, record, Arborescence(outgoing))
    verdict = validate_arborescence(g, arb)
    assert verdict.ok, verdict.problems
    dropped = set(record.cycle) - arb.edge_set()
    assert len(dropped) == 1


def _has_cycle(stack, outgoing):
    for start in outgoing:
        v = start
        seen = set()
        while v in outgoing:
            if v in seen:
                return True
            seen.add(v)
            v = stack.head(outgoing[v])
    return False


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_project_monotone(seed, k):
    g = random_stack_and_cycles(seed)
    stack = ContractionStack(g)
    cycle = find_directed_cycle(stack)
    if cycle is not None:
        stack.contract_cycle(cycle)
    rng = random.Random(seed ^ k)
    small = frozenset(e for e in range(g.n_edges) if rng.random() < 0.4)
    big = small | frozenset(e for e in range(g.n_edges) if rng.random() < 0.4)
    assert project_edge_set(stack, small) <= project_edge_set(stack, big)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_live_edges_never_resolve_to_self_loops(seed):
    g = random_stack_and_cycles(seed)
    stack = ContractionStack(g)
    for _ in range(3):
        cycle = find_directed_cycle(stack)
        if cycle is None:
            break
        stack.contract_cycle(cycle)
        for e in range(g.n_edges):
            if not stack.is_dead(e):
                assert stack.tail(e) != stack.head(e)
