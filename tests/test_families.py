import hashlib

import pytest

from cleb.algorithms import cleb_walk_algorithm
from cleb.errors import IncompleteWalkError, PreconditionViolatedError, TooLargeError
from cleb.families import (
    BoundedSubdivision,
    GaltonWatson,
    LatticeBox,
    PathSegment,
    RegularTree,
    connectivity_monotonicity_check,
    coupled_assignment,
    parse_family,
    transience_trace,
    wired_msa_sequence,
)
from cleb.graph import build_graph, validate_arborescence
from cleb.instances import GLUED_TREE_SHAPES
from cleb.util import derive
from cleb.walks import glued_tree
from cleb.weights import Exponential, Fixed


def test_path_segment_realize():
    real = PathSegment().realize(3)
    g = real.graph
    assert g.n_vertices == 8  # -3..3 plus the boundary
    assert len(real.canonical) == g.n_edges == 2 * 6 + 4


def test_regular_tree_realize():
    real = RegularTree(2).realize(3)
    g = real.graph
    assert g.n_vertices == 8  # depths 0..2 plus the boundary
    assert g.n_edges == 2 * (2 + 4 + 8)
    arb, _ = cleb_walk_algorithm(g, coupled_assignment(Exponential(1.0), 5, real))
    assert validate_arborescence(g, arb).ok


def test_canonical_ids_nest_across_radii():
    fam = RegularTree(3)
    small = fam.realize(2)
    large = fam.realize(4)
    assert set(small.canonical) <= set(large.canonical)


def test_coupled_weights_identical_across_radii():
    fam = RegularTree(2)
    small = fam.realize(3)
    large = fam.realize(8)
    a_small = coupled_assignment(Exponential(1.0), 42, small)
    a_large = coupled_assignment(Exponential(1.0), 42, large)
    canon_small = {c: e for e, c in enumerate(small.canonical)}
    canon_large = {c: e for e, c in enumerate(large.canonical)}
    shared = set(canon_small) & set(canon_large)
    assert shared
    for c in sorted(shared):
        assert a_small.base(canon_small[c]) == a_large.base(canon_large[c])


def test_two_master_seeds_differ_nearly_everywhere():
    fam = RegularTree(2)
    real = fam.realize(9)
    a = coupled_assignment(Exponential(1.0), 1, real)
    b = coupled_assignment(Exponential(1.0), 2, real)
    n = min(1000, real.graph.n_edges)
    differing = sum(a.base(e) != b.base(e) for e in range(n))
    assert differing >= 0.99 * n


def test_fixed_model_passthrough_in_families():
    fam = PathSegment()
    real = fam.realize(2)
    values = {c: float(i + 1) for i, c in enumerate(real.canonical)}
    assign = coupled_assignment(Fixed(values), 0, real)
    assert assign.base(0) == values[real.canonical[0]]


def test_galton_watson_deterministic_and_nested():
    fam = GaltonWatson.geometric(0.5, seed=31)
    a = fam.realize(4)
    b = fam.realize(4)
    assert a.canonical == b.canonical
    c = fam.realize(5)
    assert set(a.canonical) <= set(c.canonical)


def test_galton_watson_rejects_mass_at_zero():
    with pytest.raises(PreconditionViolatedError):
        GaltonWatson({0: 0.5, 1: 0.5}, seed=1)


def test_subdivision_lengths_bounded_and_stable():
    fam = BoundedSubdivision(2, 4, seed=9)
    for child in (2, 3, 4, 5):
        length = fam.segment_length(child)
        assert 1 <= length <= 4
        assert length == fam.segment_length(child)
    real = fam.realize(3)
    arb, _ = cleb_walk_algorithm(real.graph,
                                 coupled_assignment(Exponential(1.0), 4, real))
    assert validate_arborescence(real.graph, arb).ok


def _wired_size(graph, kept):
    """Vertex and edge counts once everything outside `kept` is identified
    into one boundary vertex: edges with both ends outside vanish."""
    kept = set(kept)
    return len(kept) + 1, sum(1 for _, t, h in graph.edges() if t in kept or h in kept)


def test_lattice_box_matches_wired_counts():
    fam = LatticeBox(2)
    real = fam.realize(2)
    coords = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    idx = {c: i for i, c in enumerate(coords)}
    edges = []
    for (x, y) in coords:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (x + dx, y + dy)
            if nb in idx:
                edges.append((idx[(x, y)], idx[nb]))
    big = build_graph(list(range(len(coords))), [idx[(3, 3)]], edges)
    kept = [idx[c] for c in coords if abs(c[0]) <= 2 and abs(c[1]) <= 2]
    assert _wired_size(big, kept) == (real.graph.n_vertices, real.graph.n_edges)


def test_lattice_ball_one_wiring_count():
    # keep the origin plus its four neighbours inside a radius-2 box:
    # 8 interior oriented edges plus 12 crossing pairs
    fam = LatticeBox(2)
    real = fam.realize(2)
    g = real.graph
    keep = {real.probe_map[fam._vcode(c)]
            for c in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]}
    assert _wired_size(g, keep) == (6, 8 + 24)


def test_too_large_guards():
    with pytest.raises(TooLargeError):
        RegularTree(2).realize(25)
    with pytest.raises(TooLargeError):
        LatticeBox(2).realize(2000)


def test_parse_family_specs():
    assert isinstance(parse_family("path"), PathSegment)
    assert parse_family("tree:3").arity == 3
    assert parse_family("lattice:2").dim == 2
    assert isinstance(parse_family("gw:0.5", seed=3), GaltonWatson)
    assert isinstance(parse_family("subdiv:2:4", seed=3), BoundedSubdivision)


def test_wired_msa_sequence_reports_probe_history():
    fam = RegularTree(2)
    report = wired_msa_sequence(fam, Exponential(1.0), [3, 4, 5], [1], 77)
    hist, = report.probes
    assert sorted(hist.by_radius) == [3, 4, 5]
    if len(set(hist.by_radius.values())) == 1:
        assert hist.stabilization_radius() == 3
        assert not hist.censored


def _full_msa_probe_edges(family, model, radii, probes, seed):
    """Reference: every probe's canonical edge read off a full MSA per radius."""
    edges = {}
    for radius in radii:
        real = family.realize(radius)
        arb, _ = cleb_walk_algorithm(real.graph, coupled_assignment(model, seed, real))
        for p in probes:
            edges[p, radius] = real.canonical[arb.outgoing[real.probe_map[p]]]
    return edges


_LATTICE = LatticeBox(2)
_DIFFERENTIAL_CASES = [
    ("tree:2", (8, 10, 12), (1, 2, 3, 6), range(14)),
    ("tree:3", (4, 5, 6), tuple(range(1, 14)), range(4)),
    ("path", (10, 20, 40), tuple(range(6)), range(6)),
    ("lattice:2", (5, 8, 12), (_LATTICE._vcode((0, 0)), _LATTICE._vcode((1, 0))), range(4)),
    ("gw:0.5", (4, 6, 8), (1, 14, 14 * 13 + 1), range(4)),  # root, child, grandchild
    ("subdiv:2:3", (3, 4, 5), (1, 2, 3), range(4)),
]


@pytest.mark.parametrize("spec,radii,probes,seeds", _DIFFERENTIAL_CASES,
                         ids=[case[0] for case in _DIFFERENTIAL_CASES])
def test_wired_msa_sequence_matches_full_msa(spec, radii, probes, seeds):
    family = parse_family(spec, seed=7)
    for s in seeds:
        seed = derive(8080, spec, s)
        report = wired_msa_sequence(family, Exponential(1.0), radii, probes, seed)
        got = {(h.probe, r): e for h in report.probes for r, e in h.by_radius.items()}
        assert got == _full_msa_probe_edges(family, Exponential(1.0), radii, probes, seed)


def test_wired_msa_sequence_is_walk_local(monkeypatch):
    """Probe answers never solve the whole ball, and a probe inside an
    earlier probe's recovered branch costs no walk."""
    import cleb.algorithms as algorithms

    def refuse(*args, **kwargs):
        raise AssertionError("wired_msa_sequence solved a whole ball")

    walks = []
    real_walk = algorithms.cleb_walk

    def counting_walk(*args, **kwargs):
        walks.append(args[2])
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(algorithms, "cleb_walk_algorithm", refuse)
    monkeypatch.setattr(algorithms, "cleb_walk", counting_walk)
    probes = list(range(6))
    report = wired_msa_sequence(PathSegment(), Exponential(1.0), [10, 20, 40], probes,
                                derive(8081))
    assert all(len(h.by_radius) == 3 for h in report.probes)
    assert len(walks) < 3 * len(probes)


def test_wired_msa_sequence_step_cap_raises():
    with pytest.raises(IncompleteWalkError):
        wired_msa_sequence(RegularTree(2), Exponential(1.0), [8], [1], 0, step_cap=1)


def test_forced_weights_stabilize_at_smallest_radius():
    # deterministic weights increasing away from the root pin every edge
    fam = RegularTree(2)

    class Outward:
        spec = "outward"

        def sample(self, seed, key):
            vertex = key // 2
            up = key % 2
            return float(vertex) + (0.25 if up == 0 else 0.5)

        def is_exact(self):
            return False

    report = wired_msa_sequence(fam, Outward(), [3, 4, 5], [1, 2, 3], 0)
    for hist in report.probes:
        assert hist.stabilization_radius() == 3
        assert not hist.censored


def test_path_segment_msa_oscillates_across_radii():
    """On the line the probe edge keeps flipping for many seeds: the limit
    object genuinely fails to settle within any finite window."""
    fam = PathSegment()
    flips = 0
    for s in range(20):
        report = wired_msa_sequence(fam, Exponential(1.0), [10, 20, 40, 80], [0],
                                    derive(5150, s))
        hist, = report.probes
        if len(set(hist.by_radius.values())) > 1:
            flips += 1
    assert flips >= 5


def test_monotonicity_small_batch():
    tree = RegularTree(3)
    pool = [1, 2, 3, 4]
    verdict = connectivity_monotonicity_check(
        tree, Exponential(1.0), [2, 3, 4], [(1, 2), (3, 4), (2, 4)], 909)
    assert verdict.ok
    path = PathSegment()
    verdict = connectivity_monotonicity_check(
        path, Exponential(1.0), [5, 10, 20], [(-3, 2), (0, 4), (-1, 1)], 910)
    assert verdict.ok


def test_pair_on_common_future_always_connected():
    fam = RegularTree(2)
    real = fam.realize(4)
    assign = coupled_assignment(Exponential(1.0), derive(2211), real)
    arb, _ = cleb_walk_algorithm(real.graph, assign)
    from cleb.algorithms import connectivity_profile
    from cleb.graph import future_edges

    v = 4
    fut = future_edges(real.graph, arb, v)
    mid = real.graph.heads[fut[0]]
    if mid not in real.graph.boundary:
        assert connectivity_profile(real.graph, arb, [(v, mid)]) == [1]


def test_transience_trace_tree_vs_path():
    tree_total = path_total = 0
    for s in range(15):
        tree_trace, _ = transience_trace(RegularTree(2), 12, 1, 50_000, derive(3030, s))
        assert tree_trace.terminal == "hit_boundary"
        tree_total += tree_trace.returns_to_empty()
        path_trace, _ = transience_trace(PathSegment(), 40, 0, 20_000, derive(3031, s))
        path_total += path_trace.returns_to_empty()
    assert path_total > tree_total


def test_tree_returns_median_small():
    counts = []
    fam = RegularTree(2)
    for s in range(30):
        trace, _ = transience_trace(fam, 12, 1, 50_000, derive(4040, s))
        counts.append(trace.returns_to_empty())
    counts.sort()
    assert counts[len(counts) // 2] <= 2


def test_lattice_trace_positions():
    fam = LatticeBox(2)
    trace, positions = transience_trace(fam, 15, fam._vcode((0, 0)), 3000, derive(5050))
    assert positions is not None and len(positions) == len(trace.steps)
    assert all(max(abs(x), abs(y)) <= 15 for x, y in positions)
    assert positions[0] in [(0, 1), (0, -1), (1, 0), (-1, 0)]


@pytest.mark.parametrize("family, radius, expected", [
    (RegularTree(2), 9, "1b53c3423452362e"),
    (RegularTree(3), 5, "d1077b393ebe2867"),
    (GaltonWatson.geometric(0.5, 7), 6, "d159904840d8cb97"),
])
def test_tree_builders_keep_vertex_order_and_canonical_ids(family, radius, expected):
    real = family.realize(radius)
    g = real.graph
    h = hashlib.sha256(repr((g.vertices, list(g.edges()), real.canonical,
                             sorted(real.probe_map.items()))).encode())
    assert h.hexdigest()[:16] == expected


def _structure_digest(g, canonical=None, probe_map=None) -> str:
    """sha256 prefix of a graph's vertices, boundary, arcs, out-lists and
    id bound, plus a realization's canonical ids and probe map."""
    parts = (g.vertices, sorted(g.boundary), g.tails, g.heads,
             [g.out_edges(v) for v in g.vertices], g.id_bound, canonical,
             None if probe_map is None else list(probe_map.items()))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("spec, radius, expected", [
    ("tree:2", 1, "c54729f44dabc61e"),
    ("tree:2", 2, "3eee4280e7e9aa87"),
    ("tree:2", 12, "6ad7696a257119fc"),
    ("tree:3", 6, "d6df5f8cdf5bf967"),
    ("gw:0.5", 8, "77472fb0d9c67fc6"),
    ("subdiv:2:3", 5, "1b3ce54fe4c892f2"),
    ("lattice:1", 30, "edd61a9a181e65e4"),
    ("lattice:2", 1, "cd5a033028177462"),
    ("lattice:2", 2, "bd0b4e024cf88140"),
    ("lattice:2", 20, "406399fed5714352"),
    ("lattice:3", 4, "c0808b311b66a6bb"),
    ("lattice:4", 2, "2f903c3c1c791ff6"),
])
def test_realized_structure_is_pinned(spec, radius, expected):
    real = parse_family(spec, 7).realize(radius)
    assert _structure_digest(real.graph, real.canonical, real.probe_map) == expected


@pytest.mark.parametrize("dim, radius, expected", [
    (1, 30, "79f255af7322872b"),
    (2, 1, "a75eaf781d44ed60"),
    (2, 2, "6a4a81bff7557799"),
    (2, 20, "31dabd7438f144e4"),
    (3, 4, "21f6a8233a37f770"),
    (4, 2, "a45c9d2e6260ae11"),
])
def test_lattice_structure_without_canonical_ids_is_pinned(dim, radius, expected):
    real = LatticeBox(dim).realize(radius, want_canonical=False)
    assert _structure_digest(real.graph, real.canonical, real.probe_map) == expected


@pytest.mark.parametrize("dim, radius, steps, expected", [
    (2, 15, 118, "c7846c79401cb315"),
    (3, 5, 24, "4f0f8dec52ec13c1"),
])
def test_lattice_trace_positions_are_pinned(dim, radius, steps, expected):
    fam = LatticeBox(dim)
    _, positions = transience_trace(fam, radius, fam._vcode((0,) * dim), 3000, derive(5050))
    assert len(positions) == steps
    assert hashlib.sha256(repr(positions).encode()).hexdigest()[:16] == expected


def test_lattice_codes_come_from_arrays(monkeypatch):
    def refuse(self, coords):
        raise AssertionError("per-vertex _vcode call")

    monkeypatch.setattr(LatticeBox, "_vcode", refuse)
    real = LatticeBox(2).realize(30)
    assert real.graph.n_vertices == 61 * 61 + 1


@pytest.mark.parametrize("depth, arities, expected", [
    (len(arities), arities, digest) for (_, arities), digest in zip(GLUED_TREE_SHAPES, [
        "9f920a2af1b34e25", "de27efda0592f439", "d790ba420ac0dc15", "5464fc37fe004810",
        "90777bf4bc11a9ec", "77071f14cd67e0ac", "25aa30fbaf8a652b", "91ba352aa6e7cfc1",
        "765be1581658ad55", "2fd6925880656bda"])
] + [(3, 2, "90777bf4bc11a9ec"), (4, 3, "91ba352aa6e7cfc1")])
def test_glued_tree_structure_is_pinned(depth, arities, expected):
    assert _structure_digest(glued_tree(depth, arities)) == expected


def test_regular_tree_builds_a_level_per_expansion(monkeypatch):
    calls = []
    expand = RegularTree.expand
    monkeypatch.setattr(RegularTree, "expand",
                        lambda self, level: calls.append(len(level)) or expand(self, level))
    RegularTree(2).realize(12)
    assert calls == [2 ** depth for depth in range(12)]
    monkeypatch.undo()
    # heap numbering: vertex v of tree:b has children b*v - (b - 2) + i, i < b
    tree, level = RegularTree(3), range(5, 14)
    parents, children = tree.expand(level)
    assert list(zip(parents, children)) == [(v, 3 * v - 1 + i) for v in level for i in range(3)]
