import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleb.algorithms import _contracting_walk, cleb_walk
from cleb.errors import (
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
    DirectedMultigraph,
    build_graph,
    load_graph_json,
    dump_graph_json,
    uncontract,
    validate_arborescence,
)
from cleb.families import LatticeBox, RegularTree, coupled_assignment
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
    assert len(stack.live_vertices()) == 2
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


def test_vertex_count_drops_by_cycle_length_minus_one():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    before = len(stack.live_vertices())
    stack.contract_cycle([0, 1, 2])
    assert len(stack.live_vertices()) == before - 2


def test_pop_restores_previous_view():
    g = triangle_with_exit()
    stack = ContractionStack(g)
    stack.contract_cycle([0, 1, 2])
    stack.pop()
    assert len(stack.live_vertices()) == 4
    assert not stack.is_dead(0)
    assert stack.tail(0) == 1 and stack.head(0) == 2


def test_stack_construction_is_lazy():
    real = RegularTree(2).realize(14)
    g = real.graph
    stack = ContractionStack(g)
    assert not stack._out
    assert len(stack.live_vertices()) == g.n_vertices
    assign = coupled_assignment(Exponential(), derive(5, 14), real)
    cleb_walk(g, assign, 1, stack=stack)
    assert stack.records
    contracted = sum(len(r.members) for r in stack.records)
    assert len(stack._out) <= contracted


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


def find_directed_cycle(stack, first=0):
    """Any directed cycle in the current view, by successor search from
    the live vertices in order, rotated to begin at position `first`."""
    live = stack.live_vertices()
    first %= len(live)
    live = live[first:] + live[:first]
    for start in live:
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
            if len(path) > len(live):
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


class _FilteredListsModel:
    """Reference for stored out-lists: each supervertex keeps every edge its
    members ever listed, concatenated in union-by-size order (the larger
    class first, the earlier member on ties), and reads drop dead edges."""

    def __init__(self, graph):
        self.graph = graph
        self.owner = {v: v for v in graph.vertices}
        self.size = {v: 1 for v in graph.vertices}
        self.lists = {v: list(graph.out_edges(v)) for v in graph.vertices}

    def contract(self, record):
        first, *rest = record.members
        merged, size = self.lists[first], self.size[first]
        for m in rest:
            if size < self.size[m]:
                merged = self.lists[m] + merged
            else:
                merged = merged + self.lists[m]
            size += self.size[m]
        self.lists[record.supervertex] = merged
        self.size[record.supervertex] = size
        members = set(record.members)
        for v, o in self.owner.items():
            if o in members:
                self.owner[v] = record.supervertex

    def is_dead(self, e):
        return self.owner[self.graph.tails[e]] == self.owner[self.graph.heads[e]]

    def out_edges(self, v):
        return [e for e in self.lists[v] if not self.is_dead(e)]


def _view(stack):
    """Everything a reader of the stack sees: out-lists and dead edges."""
    outs = {v: list(stack.out_edges(v)) for v in stack.live_vertices()}
    return outs, [stack.is_dead(e) for e in range(stack.base.n_edges)]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_stored_out_lists_are_the_live_edges_and_pop_restores_them(seed):
    g = random_stack_and_cycles(seed, n=10, extra=25)
    stack = ContractionStack(g)
    model = _FilteredListsModel(g)
    views = [_view(stack)]
    for _ in range(6):
        cycle = find_directed_cycle(stack)
        if cycle is None:
            break
        model.contract(stack.contract_cycle(cycle))
        views.append(_view(stack))
        for v in stack.live_vertices():
            leaving = {e for e in range(g.n_edges)
                       if stack.tail(e) == v and stack.head(e) != v}
            assert stack.out_edges(v) == model.out_edges(v)
            assert set(stack.out_edges(v)) == leaving
        assert all(stack.is_dead(e) == model.is_dead(e) for e in range(g.n_edges))
    views.pop()
    while stack.records:
        stack.pop()
        assert _view(stack) == views.pop()


def test_uniform_walk_stack_pops_back_to_every_view():
    family = LatticeBox(2)
    real = family.realize(10)
    g = real.graph
    stack = ContractionStack(g)
    randrange = random.Random(0).randrange
    views = []

    def uniform_edge(v):
        out = stack.out_edges(v)
        return out[randrange(len(out))], None

    def contract(cycle):
        views.append(_view(stack))
        return stack.contract_cycle(cycle)

    absorbing = {stack.resolve(b) for b in g.boundary}
    _contracting_walk(stack, family.origin(real), 10**6, absorbing, uniform_edge, contract)
    assert len(stack.records) > 20
    while stack.records:
        stack.pop()
        assert _view(stack) == views.pop()
    assert all(stack.out_edges(v) == g.out_edges(v) for v in g.vertices)


@pytest.mark.parametrize("edges, error, message", [
    ([(1, 0), (2, 2), (1, 9)], SelfLoopError, "edge 1: 2 -> 2"),
    ([(1, 0), (9, 1), (2, 2)], UnknownVertexError, "edge 1: 9 -> 1"),
    ([(1, 0), (1, 2), (2, 9), (0, 0)], UnknownVertexError, "edge 2: 2 -> 9"),
])
def test_first_bad_edge_decides_the_error(edges, error, message):
    tails, heads = [t for t, _ in edges], [h for _, h in edges]
    for build in (lambda: DirectedMultigraph([0, 1, 2], [0], edges),
                  lambda: DirectedMultigraph.from_arcs([0, 1, 2], [0], tails, heads)):
        with pytest.raises(error, match=f"^{message}$"):
            build()


def test_from_arcs_rejects_unaligned_arcs():
    with pytest.raises(ValueError):
        DirectedMultigraph.from_arcs([0, 1, 2], [0], [1, 2], [0])


class _UnionChainModel:
    """Reference stack: the union chain the quick-find replaced.  Absorbed
    roots and labels point at their parents and every read walks the chain;
    a contraction unions its members' roots in cycle order by size."""

    def __init__(self):
        self.parent, self.size, self.label, self.racc, self.doff = {}, {}, {}, {}, {}
        self.saved = []

    def find(self, x):
        while self.parent.get(x, x) != x:
            x = self.parent[x]
        return x

    def resolve(self, v):
        r = self.find(v)
        return self.label.get(r, r)

    def potential(self, x):
        total = 0
        while self.parent.get(x, x) != x:
            total += self.doff.get(x, 0)
            x = self.parent[x]
        return total + self.racc.get(x, 0)

    def add_potential(self, v, amount):
        r = self.find(v)
        self.racc[r] = self.racc.get(r, 0) + amount

    def contract(self, record):
        self.saved.append([dict(d) for d in (self.parent, self.size, self.label, self.doff)])
        root, *rest = [self.find(m) for m in record.members]
        for rb in rest:
            ra = root
            if self.size.get(ra, 1) < self.size.get(rb, 1):
                ra, rb = rb, ra
            self.label.pop(rb, None)
            self.parent[rb] = root = ra
            self.size[ra] = self.size.get(ra, 1) + self.size.get(rb, 1)
            self.doff[rb] = self.racc.get(rb, 0) - self.racc.get(ra, 0)
        self.parent[record.supervertex] = root
        self.label[root] = record.supervertex

    def pop(self):
        self.parent, self.size, self.label, self.doff = self.saved.pop()


def _stack_state(stack):
    """Copies of every undoable map of the stack, lists included."""
    return ({k: list(v) for k, v in stack._members.items()},
            {k: list(v) for k, v in stack._out.items()},
            *(dict(d) for d in (stack._root, stack._parent, stack._doff,
                                stack._size, stack._label)))


@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(st.sampled_from("ccpa"), st.integers(0, 99)), min_size=20, max_size=40))
@settings(max_examples=120, deadline=None)
def test_quick_find_stack_matches_the_union_chain(seed, ops):
    """Interleaved potentials, contractions and pops read the same as the
    union-chain reference, and each pop restores every undoable map."""
    g = random_stack_and_cycles(seed, n=10, extra=25)
    stack = ContractionStack(g)
    model = _UnionChainModel()
    states = []
    for kind, k in ops:
        if kind == "c":
            cycle = find_directed_cycle(stack, k)
            if cycle is None:
                continue
            states.append(_stack_state(stack))
            model.contract(stack.contract_cycle(cycle))
        elif kind == "p":
            if not stack.records:
                continue
            stack.pop()
            model.pop()
            assert _stack_state(stack) == states.pop()
        else:
            live = stack.live_vertices()
            v, amount = live[k % len(live)], (k + 1) / 7
            stack.add_potential(v, amount)
            model.add_potential(v, amount)
        for v in g.vertices:
            assert stack.resolve(v) == model.resolve(v)
            assert stack.potential(v) == model.potential(v)
        for e in range(g.n_edges):
            assert stack.is_dead(e) == (model.find(g.tails[e]) == model.find(g.heads[e]))


def test_lcrw_membership_stays_flat():
    """After uniform walks from the origin that contract 1,000 loops or more,
    every absorbed node maps to a class root, and each root's member list
    names exactly the nodes mapped to it."""
    family = LatticeBox(2)
    real = family.realize(50)
    g = real.graph
    stack = ContractionStack(g)
    randrange = random.Random(0).randrange

    def uniform_edge(v):
        out = stack.out_edges(v)
        return out[randrange(len(out))], None

    absorbing = {stack.resolve(b) for b in g.boundary}
    for _ in range(5):  # one stack, so later walks start from the contracted origin
        _contracting_walk(stack, family.origin(real), 10**6, absorbing, uniform_edge,
                          stack.contract_cycle)
    assert len(stack.records) >= 1000
    assert not any(r in stack._root for r in stack._root.values())
    by_root = {}
    for x, r in stack._root.items():
        by_root.setdefault(r, set()).add(x)
    assert by_root == {r: set(m) for r, m in stack._members.items()}
