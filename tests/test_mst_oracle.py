"""Known-answer check at scale: under symmetric weights the MSA is the MST.

When both orientations of an edge carry one weight, every spanning
arborescence weighs as much as its underlying tree, so the minimum
arborescence of a wired ball is its minimum spanning tree, with the
boundary as one vertex.  scipy's MST is an oracle independent of the
contraction engine.
"""

import pytest

from cleb.algorithms import cleb_walk_algorithm
from cleb.families import parse_family
from cleb.util import derive
from cleb.weights import Exponential, WeightAssignment

sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")

LATTICE_BASE = 2 * 2**20 + 1


def undirected_key(spec: str, c: int) -> int:
    """One key for both orientations of an edge.  Tree ids pair as 2k/2k + 1.
    On lattice:d the odd id (the +e_a arc) stays, and the even id of the
    reverse arc, which starts one step along e_a, is mapped onto it."""
    kind, _, dim = spec.partition(":")
    if kind != "lattice":
        return c >> 1
    d = int(dim)
    if c & 1:
        return c
    a = (c % (2 * d)) // 2
    return c - 2 * d * LATTICE_BASE ** (d - 1 - a) + 1


@pytest.mark.parametrize("spec, radius", [("lattice:2", 60), ("lattice:3", 8), ("tree:2", 14)])
def test_symmetric_msa_is_the_scipy_mst(spec, radius):
    real = parse_family(spec).realize(radius)
    graph, canonical = real.graph, real.canonical
    assign = WeightAssignment(Exponential(1.0), derive(9191, spec, radius),
                              key_of=lambda e: undirected_key(spec, canonical[e]))
    arb, _ = cleb_walk_algorithm(graph, assign)
    got = {(min(graph.tails[e], graph.heads[e]), max(graph.tails[e], graph.heads[e]))
           for e in arb.outgoing.values()}
    assert len(got) == len(arb) == graph.n_vertices - 1
    pairs = [(min(t, h), max(t, h)) for _, t, h in graph.edges()]
    weights = [float(assign.base(e)) for e in range(graph.n_edges)]
    # coo_matrix sums duplicates, so parallel boundary edges are first
    # reduced to their minimum: heaviest first, the lightest is written last
    order = sorted(range(graph.n_edges), key=weights.__getitem__, reverse=True)
    lightest = {pairs[e]: weights[e] for e in order}
    rows, cols = zip(*lightest)
    n = graph.id_bound
    mst = csgraph.minimum_spanning_tree(
        sparse.coo_matrix((list(lightest.values()), (rows, cols)), shape=(n, n))).tocoo()
    assert got == set(zip(mst.row.tolist(), mst.col.tolist()))
