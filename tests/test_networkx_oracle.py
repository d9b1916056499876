"""Differential check of the contraction engine against networkx Edmonds.

networkx finds minimum spanning arborescences directed away from a root,
so the instance is reversed and its boundary merged into one root vertex.
"""

import pytest

from cleb.algorithms import (
    cleb_walk,
    cleb_walk_algorithm,
    original_cleb,
    recover_branch,
    sequential_cleb,
)
from cleb.families import coupled_assignment, parse_family
from cleb.util import derive
from cleb.weights import Exponential

nx = pytest.importorskip("networkx")


def networkx_msa(graph, assign) -> frozenset[int]:
    root = graph.id_bound
    rev = nx.MultiDiGraph()
    rev.add_nodes_from(v for v in graph.vertices if v not in graph.boundary)
    rev.add_node(root)
    for e, t, h in graph.edges():
        if t in graph.boundary:
            continue
        rev.add_edge(root if h in graph.boundary else h, t, key=e,
                     weight=assign.base(e), eid=e)
    arb = nx.minimum_spanning_arborescence(rev, preserve_attrs=True)
    return frozenset(data["eid"] for _, _, data in arb.edges(data=True))


def realized(spec, radius):
    real = parse_family(spec).realize(radius)
    assign = coupled_assignment(Exponential(), derive(4242, spec, radius), real)
    return real.graph, assign


@pytest.mark.parametrize("spec,radius", [("lattice:2", r) for r in range(6, 11)]
                         + [("tree:2", r) for r in range(1, 9)])
def test_engine_matches_networkx_edmonds(spec, radius):
    graph, assign = realized(spec, radius)
    truth = networkx_msa(graph, assign)
    walk_arb, _ = cleb_walk_algorithm(graph, assign)
    assert walk_arb.edge_set() == truth
    arb, _ = original_cleb(graph, assign)
    assert arb.edge_set() == truth
    inner = [v for v in graph.vertices if v not in graph.boundary]
    seq_arb, _ = sequential_cleb(graph, assign, inner[::-1])
    assert seq_arb.edge_set() == truth


def test_recover_branch_inside_the_minimum_at_scale():
    graph, assign = realized("tree:2", 12)
    msa, _ = cleb_walk_algorithm(graph, assign)
    for probe in (1, 2, 7, 100, 1500, 4000):
        gamma, _ = recover_branch(graph, cleb_walk(graph, assign, probe))
        assert gamma.outgoing.items() <= msa.outgoing.items()
        assert gamma.outgoing[probe] == msa.outgoing[probe]
