"""Nested finite realizations of infinite graph families.

Each family realizes a wired ball of a given radius: everything outside
the ball is identified into one boundary vertex.  Realizations at
different radii agree on their overlap through canonical edge ids, and
weights are keyed by those ids, so one master seed yields a single
coupled weight collection across the whole exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, PreconditionViolatedError, TooLargeError
from .graph import DirectedMultigraph, EdgeId, VertexId, build_graph
from .util import u01
from .weights import WeightAssignment, WeightModel

_PATH_ENC = 1 << 30
_LATTICE_B = 1 << 20


@dataclass(frozen=True)
class Realization:
    graph: DirectedMultigraph
    canonical: list[int]                   # EdgeId -> canonical id
    probe_map: dict[VertexId, VertexId]    # canonical vertex -> graph vertex


class GraphFamily:
    """Base class: subclasses construct wired balls with canonical ids."""

    spec = "?"

    def realize(self, radius: int) -> Realization:
        raise NotImplementedError


class PathSegment(GraphFamily):
    """The integer line, wired at both ends of [-radius, radius]."""

    spec = "path"
    BOUNDARY = 10**9

    def realize(self, radius: int) -> Realization:
        if radius < 1:
            raise PreconditionViolatedError("radius must be at least 1")
        enc = lambda x: x + _PATH_ENC
        vertices = list(range(-radius, radius + 1)) + [self.BOUNDARY]
        edges = []
        canon = []
        for x in range(-radius, radius):
            edges.append((x, x + 1))
            canon.append(2 * enc(x))
            edges.append((x + 1, x))
            canon.append(2 * enc(x) + 1)
        bnd = self.BOUNDARY
        edges += [(-radius, bnd), (bnd, -radius), (radius, bnd), (bnd, radius)]
        canon += [2 * enc(-radius - 1) + 1, 2 * enc(-radius - 1),
                  2 * enc(radius), 2 * enc(radius) + 1]
        graph = build_graph(vertices, [bnd], edges)
        probe = {x: x for x in range(-radius, radius + 1)}
        return Realization(graph, canon, probe)


def _interleave(even: Sequence, odd) -> list:
    """[even[0], odd[0], even[1], odd[1], ...]."""
    block = [0] * (2 * len(even))
    block[::2], block[1::2] = even, odd
    return block


def _tree_ball(expand: Callable[[Sequence[VertexId]], tuple[Sequence, Sequence]],
               radius: int) -> Realization:
    """Rooted tree (root 1) wired at depth `radius` into boundary vertex 0.

    ``expand(level)`` returns the next level breadth first as aligned
    ``parents``/``children`` sequences, written as edges by slice assignment:
    parent -> c and c -> parent, canonically 2c and 2c + 1, so vertex ids
    double as canonical vertex ids; on the last level c is wired into 0.
    The ball is refused once a level pushes it past 2,000,000 vertices.
    """
    vertices, tails, heads, canon = [0, 1], [], [], []
    level: Sequence[VertexId] = [1]
    for depth in range(radius):
        parents, children = expand(level)
        lower = [0] * len(children) if depth == radius - 1 else children
        tails += _interleave(parents, lower)
        heads += _interleave(lower, parents)
        down = [2 * c for c in children]
        canon += _interleave(down, [d + 1 for d in down])
        if lower is children:
            vertices += children
        if len(vertices) > 2_000_000:
            raise TooLargeError("branching ball too large")
        level = children
    graph = DirectedMultigraph.from_arcs(vertices, [0], tails, heads)
    return Realization(graph, canon, dict(zip(vertices[1:], vertices[1:])))


def _numbered_level(level: list[VertexId], arity: int) -> tuple[list[VertexId], list[VertexId]]:
    """Next level of a tree numbered breadth first: each vertex of the
    contiguous run `level` gets `arity` children, numbered right after it.
    Lists, not ranges, so the ball's lists share one int object per id."""
    parents = [0] * (len(level) * arity)
    for i in range(arity):
        parents[i::arity] = level
    return parents, list(range(level[-1] + 1, level[-1] + 1 + len(parents)))


class RegularTree(GraphFamily):
    """Rooted tree where every vertex has `arity` children, wired at depth r.

    Vertices use heap numbering (root 1); the canonical ids of a child
    edge are 2*child (downward) and 2*child + 1 (upward), which is stable
    across radii.
    """

    spec = "tree"

    def __init__(self, arity: int):
        if arity < 2:
            raise PreconditionViolatedError("arity must be at least 2")
        self.arity = arity

    def expand(self, level: list[VertexId]) -> tuple[list[VertexId], list[VertexId]]:
        """The children of a whole level; heap numbering is breadth first."""
        return _numbered_level(level, self.arity)

    def realize(self, radius: int) -> Realization:
        if radius < 1:
            raise PreconditionViolatedError("radius must be at least 1")
        if self.arity ** radius > 2_000_000:
            raise TooLargeError("tree ball too large")
        return _tree_ball(self.expand, radius)


class LatticeBox(GraphFamily):
    """The d-dimensional integer lattice, wired outside [-radius, radius]^d."""

    spec = "lattice"

    def __init__(self, dim: int):
        if dim < 1:
            raise PreconditionViolatedError("dimension must be positive")
        self.dim = dim

    def _vcode(self, coords: Sequence[int]) -> int:
        code = 0
        base = 2 * _LATTICE_B + 1
        for c in coords:
            code = code * base + (c + _LATTICE_B)
        return code

    def realize(self, radius: int, *, want_canonical: bool = True) -> Realization:
        """Vertices row-major (last axis fastest), boundary last.  Each vertex
        sends its arcs along +e_0, -e_0, +e_1, ...; an arc that leaves the box
        goes to the boundary and is followed by the boundary's arc back.  The
        canonical id of an arc x -> x + s e_a is _vcode(x) * 2d + 2a + (s > 0),
        and a back-arc takes the id of the arc from x + s e_a back to x."""
        d = self.dim
        side = 2 * radius + 1
        if side ** d > 4_000_000:
            raise TooLargeError("lattice box too large")
        n = side ** d
        pos = np.indices((side,) * d).reshape(d, n).T
        # leaves[i, k]: step k = 2a (+e_a) or 2a + 1 (-e_a) from vertex i leaves the box
        leaves = np.stack([pos == side - 1, pos == 0], axis=2).reshape(n, 2 * d)
        strides = side ** np.arange(d - 1, -1, -1)
        owner, k, back = np.nonzero(np.stack([np.ones_like(leaves), leaves], axis=2))
        nbr = np.where(leaves[owner, k], n, owner + np.outer(strides, [1, -1]).ravel()[k])
        ids = list(range(n + 1))
        shared = np.array(ids, dtype=object)    # one int object per vertex id
        tails = shared[np.where(back, n, owner)].tolist()
        heads = shared[np.where(back, owner, nbr)].tolist()
        graph = DirectedMultigraph.from_arcs(ids, [n], tails, heads)
        # _vcode of every vertex, summed axis by axis as exact ints
        base, code = 2 * _LATTICE_B + 1, np.zeros(1, dtype=object)
        for a in range(d):
            unit = base ** (d - 1 - a)
            axis = np.array([(c + _LATTICE_B) * unit for c in range(-radius, radius + 1)],
                            dtype=object)
            code = (code[:, None] + axis).ravel()
        canon: list[int] = []
        if want_canonical:
            # step k's arc has direction k ^ 1; its back-arc starts at the
            # neighbour, whose code differs by s * base^(d-1-a), in direction k
            step = [(1 - 2 * (j & 1)) * base ** (d - 1 - j // 2) * 2 * d for j in range(2 * d)]
            offset = np.array([[j ^ 1, step[j] + j] for j in range(2 * d)], dtype=object)
            canon = ((code * (2 * d))[owner] + offset[k, back]).tolist()
        probe = dict(zip(code.tolist(), ids))
        return Realization(graph, canon, probe)

    def origin(self, realization: Realization) -> VertexId:
        return realization.probe_map[self._vcode((0,) * self.dim)]


class GaltonWatson(GraphFamily):
    """A branching tree with seeded offspring counts, wired at depth r.

    The offspring law is given as {count: probability} with no mass at
    zero; counts are capped so vertex ids stay well-defined.  The count at
    each vertex is a pure function of (family seed, vertex id), so every
    radius realizes the same underlying tree.
    """

    spec = "gw"

    def __init__(self, law: dict[int, float], seed: int):
        if any(k < 1 for k in law):
            raise PreconditionViolatedError("offspring law must not place mass at zero")
        total = sum(law.values())
        if abs(total - 1.0) > 1e-9:
            raise PreconditionViolatedError("offspring law must sum to one")
        self.law = dict(sorted(law.items()))
        self.seed = seed
        self.max_offspring = max(law)

    @classmethod
    def geometric(cls, p: float, seed: int, cap: int = 12) -> "GaltonWatson":
        """Geometric({1, 2, ...}) offspring, truncated and renormalized."""
        law = {k: p * (1 - p) ** (k - 1) for k in range(1, cap + 1)}
        scale = sum(law.values())
        return cls({k: w / scale for k, w in law.items()}, seed)

    def offspring(self, v: VertexId) -> int:
        u = u01(self.seed, "gw-offspring", v)
        acc = 0.0
        for k, p in self.law.items():
            acc += p
            if u < acc:
                return k
        return self.max_offspring

    def children(self, v: VertexId) -> list[VertexId]:
        base = self.max_offspring + 1
        return [v * base + i for i in range(1, self.offspring(v) + 1)]

    def expand(self, level: Sequence[VertexId]) -> tuple[list[VertexId], list[VertexId]]:
        """The children of a whole level, one :meth:`children` call each."""
        kids = [self.children(v) for v in level]
        return [v for v, k in zip(level, kids) for _ in k], [c for k in kids for c in k]

    def realize(self, radius: int) -> Realization:
        return _tree_ball(self.expand, radius)


class BoundedSubdivision(GraphFamily):
    """A regular tree with each edge replaced by a path of length <= bound.

    Per-edge lengths are drawn once from the family seed (keyed by the
    child end of the base edge), so all radii subdivide consistently.
    The radius counts base-tree depth.
    """

    spec = "subdiv"

    def __init__(self, arity: int, bound: int, seed: int):
        if bound < 1:
            raise PreconditionViolatedError("bound must be at least 1")
        self.base = RegularTree(arity)
        self.bound = bound
        self.seed = seed
        self._voff = 1 << 45

    def segment_length(self, child: VertexId) -> int:
        return 1 + int(u01(self.seed, "subdiv-len", child) * self.bound)

    def realize(self, radius: int) -> Realization:
        if radius < 1:
            raise PreconditionViolatedError("radius must be at least 1")
        if self.base.arity ** radius > 500_000:
            raise TooLargeError("tree ball too large")
        m1 = self.bound + 1
        vertices = [0, 1]
        edges: list[tuple[int, int]] = []
        canon: list[int] = []
        level = [1]
        for depth in range(radius):
            parents, children = self.base.expand(level)
            for parent, child in zip(parents, children):
                wired = depth == radius - 1
                length = 1 if wired else self.segment_length(child)
                chain = [parent]
                for j in range(1, length):
                    chain.append(self._voff + child * m1 + j)
                chain.append(0 if wired else child)
                for s in range(length):
                    a, b = chain[s], chain[s + 1]
                    code = child * m1 + s
                    edges.append((a, b))
                    canon.append(2 * code)
                    edges.append((b, a))
                    canon.append(2 * code + 1)
                    if s and chain[s] != 0:
                        vertices.append(chain[s])
                if not wired:
                    vertices.append(child)
            level = children
        graph = build_graph(vertices, [0], edges)
        probe = {v: v for v in vertices if v != 0}
        return Realization(graph, canon, probe)


def parse_family(spec: str, seed: int = 0) -> GraphFamily:
    """Parse family specs: path | tree:<arity> | lattice:<dim> |
    gw:<p> | subdiv:<arity>:<bound>."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "path":
            return PathSegment()
        if kind == "tree":
            return RegularTree(int(parts[1]))
        if kind == "lattice":
            return LatticeBox(int(parts[1]))
        if kind == "gw":
            return GaltonWatson.geometric(float(parts[1]), seed)
        if kind == "subdiv":
            return BoundedSubdivision(int(parts[1]), int(parts[2]), seed)
    except (IndexError, ValueError) as err:
        raise ConfigError(f"bad family spec {spec!r}: {err}") from err
    raise ConfigError(f"unknown family {spec!r}")


def coupled_assignment(model: WeightModel, master_seed: int,
                       realization: Realization) -> WeightAssignment:
    """Weights keyed by canonical edge ids: identical on every radius."""
    canonical = realization.canonical
    if not canonical:
        raise PreconditionViolatedError("realization carries no canonical ids")
    return WeightAssignment(model, master_seed, key_of=canonical.__getitem__)


@dataclass
class ProbeHistory:
    probe: VertexId
    by_radius: dict[int, int]  # radius -> canonical edge id of the probe's outgoing edge

    def stabilization_radius(self) -> int | None:
        radii = sorted(self.by_radius)
        for i, r in enumerate(radii):
            tail = {self.by_radius[s] for s in radii[i:]}
            if len(tail) == 1:
                return r
        return None

    @property
    def censored(self) -> bool:
        radii = sorted(self.by_radius)
        return len(radii) < 2 or self.by_radius[radii[-1]] != self.by_radius[radii[-2]]


@dataclass
class StabilizationReport:
    master_seed: int
    radii: list[int]
    probes: list[ProbeHistory] = field(default_factory=list)


def wired_msa_sequence(family: GraphFamily, model: WeightModel, radii: Sequence[int],
                       probes: Sequence[VertexId], master_seed: int,
                       step_cap: int = 1_000_000) -> StabilizationReport:
    """Track probe vertices' outgoing arborescence edges across radii.

    Each probe's edge in the minimal spanning arborescence of a wired ball
    comes from one walk from the probe plus :func:`recover_branch`
    (criterion 5), under the coupled weights; the rest of the ball is never
    solved.  A recovered branch is a sub-arborescence of the minimal one,
    so within a radius every edge it holds is kept, and a probe already
    covered by an earlier branch needs no walk.  The cost is the region the
    probe walks explore, not the ball.  The report records each probe's
    outgoing edge (canonically) and where it stops changing within the
    tested window.  A walk that reaches `step_cap` raises
    IncompleteWalkError.
    """
    from .algorithms import cleb_walk, recover_branch

    report = StabilizationReport(master_seed=master_seed, radii=sorted(radii),
                                 probes=[ProbeHistory(p, {}) for p in probes])
    for radius in report.radii:
        real = family.realize(radius)
        assign = coupled_assignment(model, master_seed, real)
        known: dict[VertexId, EdgeId] = {}
        for hist in report.probes:
            vertex = real.probe_map.get(hist.probe)
            if vertex is None:
                raise PreconditionViolatedError(
                    f"probe {hist.probe} lies outside radius {radius}")
            if vertex not in known:
                record = cleb_walk(real.graph, assign, vertex, step_cap)
                branch, _ = recover_branch(real.graph, record)
                known.update(branch.outgoing)
            hist.by_radius[radius] = real.canonical[known[vertex]]
    return report


@dataclass
class MonotonicityVerdict:
    violations: list[tuple[VertexId, VertexId, int, int]]  # (u, v, radius, next radius)
    bits_by_radius: dict[int, list[int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def connectivity_monotonicity_check(family: GraphFamily, model: WeightModel,
                                    radii: Sequence[int],
                                    pairs: Sequence[tuple[VertexId, VertexId]],
                                    master_seed: int,
                                    step_cap: int = 1_000_000) -> MonotonicityVerdict:
    """Check that pairwise connectivity of probes never drops as radii grow.

    Each radius is solved as a full MSA and every pair's bit is read off
    that one arborescence: with ten pairs per radius, walks from the
    probes each cover most of the segment, so one full solve is cheaper.
    """
    from .algorithms import cleb_walk_algorithm, connectivity_profile

    radii = sorted(radii)
    bits_by_radius: dict[int, list[int]] = {}
    for radius in radii:
        real = family.realize(radius)
        assign = coupled_assignment(model, master_seed, real)
        arb, _ = cleb_walk_algorithm(real.graph, assign, step_cap=step_cap)
        try:
            local_pairs = [(real.probe_map[u], real.probe_map[v]) for u, v in pairs]
        except KeyError as err:
            raise PreconditionViolatedError(
                f"probe pair vertex {err.args[0]} lies outside radius {radius}") from err
        bits_by_radius[radius] = connectivity_profile(real.graph, arb, local_pairs)
    violations = []
    for i in range(len(radii) - 1):
        r, s = radii[i], radii[i + 1]
        for k, (u, v) in enumerate(pairs):
            if bits_by_radius[r][k] > bits_by_radius[s][k]:
                violations.append((u, v, r, s))
    return MonotonicityVerdict(violations=violations, bits_by_radius=bits_by_radius)


@dataclass
class TransienceSummary:
    steps: int
    returns_to_empty: int
    max_path_len: int
    terminal: str


def transience_trace(family: GraphFamily, radius: int, start: VertexId,
                     step_cap: int, seed: int):
    """Loop-contracting walk on a wired ball, with recurrence diagnostics.

    Returns (trace, summary, positions); positions hold per-step lattice
    coordinates of the walker's representative site for lattice families,
    else None.
    """
    from .walks import lcrw_run

    lattice = isinstance(family, LatticeBox)
    real = family.realize(radius, want_canonical=False) if lattice else family.realize(radius)
    vertex = real.probe_map[start]
    trace, heads = lcrw_run(real.graph, vertex, step_cap, seed)
    positions = None
    if lattice:
        n, last, at = real.graph.n_vertices - 1, vertex, []
        for h in heads:
            if h < n:
                last = h
            at.append(last)
        shape = (2 * radius + 1,) * family.dim
        grid = np.array(np.unravel_index(np.array(at, dtype=np.int64), shape)).T - radius
        positions = list(map(tuple, grid.tolist()))
    summary = TransienceSummary(steps=len(trace.steps),
                                returns_to_empty=trace.returns_to_empty(),
                                max_path_len=trace.max_path_len(),
                                terminal=trace.terminal)
    return trace, summary, positions

