"""Pins for the shared contracting-walk driver.

The digests were recorded before the loop-contracting random walk and the
contracting walk shared one loop; they hold the exact per-step outputs of
both walks on fixed seeds, so any change in draw order, path bookkeeping
or step emission shows here.  The r=40 lattice digest was recorded while
the walk's stack still compacted its out-lists on read, so it also pins
the order of the stored lists.
"""

import hashlib

import pytest

from cleb import algorithms, walks
from cleb.algorithms import cleb_walk
from cleb.errors import BadChooserError
from cleb.families import LatticeBox, RegularTree, coupled_assignment
from cleb.util import derive
from cleb.walks import glued_tree, lcrw_run
from cleb.weights import Exponential


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _lcrw_rows(graph, start, seeds):
    for seed in seeds:
        record, _ = lcrw_run(graph, start, 10**6, derive(404, seed))
        yield (seed, record.terminal, tuple(record.exposed))
        yield tuple((s.event, s.path_len, s.cycle_len) for s in record.steps)


@pytest.mark.parametrize("radius, seeds, expected", [
    (10, range(40), "5053e713e0f0e85b"),
    (20, range(20), "83063023e361c97e"),
    (40, range(40), "422988a4a36ab982"),
])
def test_lcrw_lattice_digest(radius, seeds, expected):
    family = LatticeBox(2)
    real = family.realize(radius)
    assert _digest(_lcrw_rows(real.graph, family.origin(real), seeds)) == expected


def test_lcrw_glued_tree_digest():
    tree = glued_tree(3, [2, 3, 2])
    assert _digest(_lcrw_rows(tree, 1, range(200))) == "8dd7485741ddc641"


def test_cleb_walk_tree_digest():
    real = RegularTree(2).realize(8)
    rows = []
    for seed in range(10):
        assign = coupled_assignment(Exponential(1.0), derive(405, seed), real)
        for probe in (1, 5, 37, 200):
            rec = cleb_walk(real.graph, assign, real.probe_map[probe])
            rows.append((seed, probe, rec.terminal))
            rows.append(tuple((s.edge, s.event, s.cut, s.path_len) for s in rec.steps))
    assert _digest(rows) == "edb3166bc42445bf"


def test_lcrw_surface_used_by_benchmark():
    family = LatticeBox(2)
    real = family.realize(6)
    g = real.graph
    out = walks.lcrw_run(g, family.origin(real), 10**6, 7)
    assert isinstance(out, tuple) and len(out) == 2
    record, heads = out
    assert record.terminal == walks.HIT_BOUNDARY
    assert len(record.steps) == len(record.exposed) > 0
    assert heads == [g.heads[e] for e in record.exposed]
    assert walks.HIT_BOUNDARY == algorithms.HIT_BOUNDARY


def test_lcrw_from_boundary_vertex_raises():
    tree = glued_tree(2, [2, 2])
    with pytest.raises(BadChooserError):
        lcrw_run(tree, 0, 100, 1)
