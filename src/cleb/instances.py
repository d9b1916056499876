"""Seeded instance generators and packaged fixtures.

The verification suites and the test suite both draw their random
instances from here, so a master seed pins every graph and weight that a
run touches.  Random rational weights keep oracle comparisons exact.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib import resources

from .graph import DirectedMultigraph, EdgeId, VertexId, build_graph, load_graph_json
from .util import derive
from .weights import Fixed, WeightAssignment, sample_weights


def random_instance(seed: int, max_inner: int = 6
                    ) -> tuple[DirectedMultigraph, WeightAssignment]:
    """Connected instance with boundary 0 and distinct random rational weights.

    Every non-boundary vertex gets a skeleton edge pointing at a
    lower-numbered vertex, so the boundary is always reachable; extra
    edges (parallels and two-cycles included) are sprinkled on top, up to
    20 edges in all.
    """
    rng = random.Random(derive(seed, "instance"))
    n = rng.randint(2, max_inner)
    vertices = list(range(n + 1))
    edges = [(v, rng.randrange(v)) for v in range(1, n + 1)]
    extra = rng.randint(0, 20 - n)
    for _ in range(extra):
        t = rng.randint(1, n)
        h = rng.randrange(n + 1)
        if h != t:
            edges.append((t, h))
    graph = build_graph(vertices, [0], edges)
    return graph, rational_assignment(graph, rng)


def rational_assignment(graph: DirectedMultigraph, rng: random.Random) -> WeightAssignment:
    """Distinct random rationals over a graph's edges (exact comparisons)."""
    seen = set()
    values: dict[EdgeId, Fraction] = {}
    for e in range(graph.n_edges):
        while True:
            w = Fraction(rng.getrandbits(40) + 1, 1 << 20)
            if w not in seen:
                seen.add(w)
                values[e] = w
                break
    return sample_weights(Fixed(values), graph, 0)


def random_symmetric_instance(seed: int) -> tuple[DirectedMultigraph, list[EdgeId],
                                                   dict[EdgeId, Fraction], VertexId]:
    """Bidirected instance with one weight per unoriented edge.

    Returns (graph, reversal map, oriented weights, start vertex); the
    boundary is vertex 0, there are 2-7 inner vertices, up to 8 extra
    undirected edges ride on a spanning tree, and the underlying
    undirected graph is connected.
    """
    from .walks import build_symmetric_graph

    rng = random.Random(derive(seed, "symmetric"))
    n = rng.randint(2, 7)
    undirected = [(v, rng.randrange(v)) for v in range(1, n + 1)]
    for _ in range(rng.randint(0, 8)):
        a = rng.randint(1, n)
        b = rng.randrange(n + 1)
        if a != b:
            undirected.append((a, b))
    seen = set()
    weights = []
    for _ in undirected:
        while True:
            w = Fraction(rng.getrandbits(40) + 1, 1 << 20)
            if w not in seen:
                seen.add(w)
                weights.append(w)
                break
    graph, reversal, oriented = build_symmetric_graph(
        list(range(n + 1)), [0], undirected, weights)
    start = rng.randint(1, n)
    return graph, reversal, oriented, start


def eligible_perturbation(seed: int) -> tuple[DirectedMultigraph, WeightAssignment,
                                               VertexId, EdgeId, EdgeId]:
    """Instance plus an eligible (v, kept-edge, replacement-edge) triple,
    from the first of 200 seeded instances that has one.

    The replacement must leave the same vertex as the minimum's edge at v
    and must not point back into its own future.
    """
    from .graph import future_edges
    from .oracle import brute_force_msa

    for attempt in range(200):
        graph, assign = random_instance(derive(seed, "perturb", attempt))
        t_star = brute_force_msa(graph, assign)
        rng = random.Random(derive(seed, "perturb-pick", attempt))
        candidates = [v for v in graph.vertices
                      if v not in graph.boundary and len(graph.out_edges(v)) >= 2]
        rng.shuffle(candidates)
        for v in candidates:
            e1 = t_star.outgoing[v]
            others = [e for e in graph.out_edges(v) if e != e1]
            rng.shuffle(others)
            for e2 in others:
                u = graph.heads[e2]
                future = {graph.tails[e] for e in future_edges(graph, t_star, u)}
                future.add(u)
                if v not in future:
                    return graph, assign, v, e1, e2
    raise RuntimeError("no eligible perturbation found (seed exhausted)")


GLUED_TREE_SHAPES: list[tuple[str, list[int]]] = [
    ("depth1-binary", [2]),
    ("depth1-ternary", [3]),
    ("depth2-binary", [2, 2]),
    ("depth2-ternary", [3, 3]),
    ("depth3-binary", [2, 2, 2]),
    ("depth3-ternary", [3, 3, 3]),
    ("depth4-binary", [2, 2, 2, 2]),
    ("depth4-ternary", [3, 3, 3, 3]),
    ("depth3-mixed-232", [2, 3, 2]),
    ("depth4-mixed-3223", [3, 2, 2, 3]),
]


def glued_tree_fixtures() -> list[tuple[str, DirectedMultigraph]]:
    """The ten escape-probability tree fixtures (depths 1-4, arities 2-3)."""
    from .walks import glued_tree

    return [(name, glued_tree(len(arities), arities))
            for name, arities in GLUED_TREE_SHAPES]


def fixture_path(name: str):
    """Path to a packaged fixture JSON (``name`` without extension)."""
    return resources.files("cleb.fixtures").joinpath(f"{name}.json")


def load_fixture(name: str) -> tuple[DirectedMultigraph, dict[EdgeId, float] | None]:
    with resources.as_file(fixture_path(name)) as path:
        graph, weights, _ = load_graph_json(path)
    return graph, weights


def load_fixture_meta(name: str) -> dict:
    with resources.as_file(fixture_path(name)) as path:
        with open(path) as fh:
            return json.load(fh)


SANDWICH_FIXTURES = ["sandwich_bounce", "sandwich_triangle", "sandwich_two_stage",
                     "sandwich_nested", "sandwich_parallel"]
