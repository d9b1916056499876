"""Stochastic walk processes tied to the contraction machinery.

* the loop-contracting random walk (uniform step on the evolving
  contracted graph, closing loops fold into a supervertex);
* exact and Monte Carlo escape probabilities on glued trees;
* the loop-erased random walk under Boltzmann conductances, whose erased
  edges sandwich the contracted ones as the inverse temperature grows;
* invasion percolation and its step-by-step match with the walk on
  symmetric weights.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithms import HIT_BOUNDARY, WalkRecord, _contracting_walk
from .errors import (
    ConfigError,
    PreconditionViolatedError,
    SingularSystemError,
    StepCapReachedError,
    TieDetectedError,
)
from .families import _numbered_level, _tree_ball
from .graph import (
    ContractionStack,
    DirectedMultigraph,
    EdgeId,
    VertexId,
    build_graph,
)
from .util import derive
from .weights import DEFAULT_TOLERANCE, WeightAssignment


def lcrw_run(graph: DirectedMultigraph, start: VertexId, step_cap: int,
             seed: int) -> tuple[WalkRecord, list[VertexId]]:
    """Uniform walk on the evolving contracted graph, folding closed loops.

    Each step picks uniformly among the live outgoing edges of the current
    supervertex; otherwise this is the contracting walk: a head landing on
    the live path contracts the loop, a head in the boundary ends the walk,
    and reaching the cap is an outcome.  The record carries no exposure
    log.

    Returns the record plus the base-graph head of each step's edge, for
    lattice drawings.
    """
    stack = ContractionStack(graph)
    randrange = random.Random(derive(seed, "lcrw")).randrange

    def uniform_edge(v: VertexId) -> tuple[EdgeId, None]:
        out = stack.out_edges(v)
        if not out:
            raise PreconditionViolatedError(f"supervertex {v} has no outgoing edge")
        return out[randrange(len(out))], None

    absorbing = {stack.resolve(b) for b in graph.boundary}
    steps, terminal = _contracting_walk(stack, start, step_cap, absorbing,
                                        uniform_edge, stack.contract_cycle)
    record = WalkRecord(start, steps, terminal)
    heads = graph.heads
    return record, [heads[s.edge] for s in steps]


# -- glued trees and escape probabilities -------------------------------


def glued_tree(depth: int, arities: Sequence[int] | int) -> DirectedMultigraph:
    """Full rooted tree with all depth-`depth` leaves glued into the boundary.

    ``arities`` gives the branching per level (an int for uniform
    branching).  Vertices are numbered in BFS order from the root (id 1);
    the glued boundary vertex is 0.  Both orientations of every tree edge
    are present, so the unoriented walk degree matches the tree.  Built by
    the families' tree builder: a uniform arity b gives the wired tree:b ball.
    """
    if isinstance(arities, int):
        arities = [arities] * depth
    if len(arities) != depth:
        raise PreconditionViolatedError("need one arity per level")
    per_level = iter(arities)
    return _tree_ball(lambda level: _numbered_level(level, next(per_level)), depth).graph


def srw_escape_exact(tree: DirectedMultigraph, v: VertexId) -> float:
    """P(simple random walk from v hits the boundary before returning to v).

    Solves the harmonic system for h(x) = P_x(boundary before v) over the
    non-boundary vertices, then averages h over v's out-neighbours.
    """
    if v in tree.boundary:
        raise PreconditionViolatedError("start vertex is on the boundary")
    inner = [x for x in tree.vertices if x not in tree.boundary and x != v]
    index = {x: i for i, x in enumerate(inner)}
    n = len(inner)
    a = np.zeros((n, n))
    b = np.zeros(n)
    for i, x in enumerate(inner):
        out = tree.out_edges(x)
        deg = len(out)
        if deg == 0:
            raise SingularSystemError(f"vertex {x} is isolated")
        a[i, i] = deg
        for e in out:
            h = tree.heads[e]
            if h in tree.boundary:
                b[i] += 1.0
            elif h != v:
                a[i, index[h]] -= 1.0
    if n:
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as err:
            raise SingularSystemError(str(err)) from err
    else:
        sol = np.zeros(0)
    out = tree.out_edges(v)
    total = 0.0
    for e in out:
        h = tree.heads[e]
        if h in tree.boundary:
            total += 1.0
        else:
            total += float(sol[index[h]])
    return total / len(out)


def lcrw_escape_mc(tree: DirectedMultigraph, v: VertexId, trials: int,
                   seed: int) -> tuple[float, float]:
    """Monte Carlo P(loop-contracting walk from v escapes before returning).

    Specialized to glued trees: every loop is a backtrack into the previous
    path cluster, so the evolving graph is tracked as a path of clusters
    with per-cluster tallies of boundary edges and unvisited subtrees.  The
    top cluster lives in two locals; one uniform draw
    ``int(rand() * (1 + boundary edges + subtrees))`` picks each step.
    Returns (estimate, stderr).
    """
    if trials < 1:
        raise ConfigError(f"need at least one trial, not {trials}")
    if v in tree.boundary:
        raise PreconditionViolatedError("start vertex is on the boundary")
    boundary = tree.boundary
    nbrs: dict[VertexId, list[VertexId]] = {}
    bnd_count: dict[VertexId, int] = {}
    for x in tree.vertices:
        if x in boundary:
            continue
        ns = []
        nb = 0
        for e in tree.out_edges(x):
            h = tree.heads[e]
            if h in boundary:
                nb += 1
            else:
                ns.append(h)
        nbrs[x] = ns
        bnd_count[x] = nb
    # unique neighbour of each internal vertex on its tree path toward v;
    # the walk only ever enters a fresh vertex through this edge
    toward_v: dict[VertexId, VertexId] = {v: v}
    queue = [v]
    while queue:
        x = queue.pop()
        for y in nbrs[x]:
            if y not in toward_v:
                toward_v[y] = x
                queue.append(y)
    # a fresh cluster: (boundary-edge tally, dangling subtree roots)
    fresh = {x: (bnd_count[x], [c for c in nbrs[x] if c != toward_v[x]]) for x in nbrs}
    rand = random.Random(derive(seed, "escape", v)).random
    hits = 0
    nbrs_v = nbrs[v]
    bnd_v = bnd_count[v]
    deg_v = bnd_v + len(nbrs_v)
    for _ in range(trials):
        # step out of v
        r = int(rand() * deg_v)
        if r < bnd_v:
            hits += 1
            continue
        # path of clusters beyond v: the top one is (nb, dang), the ones
        # under it are in `below`; each cluster keeps exactly one edge back
        # to its predecessor, so every loop is a backtrack that dissolves
        # the top cluster into the one below
        nb, dang = fresh[nbrs_v[r - bnd_v]]
        dang = dang[:]
        below = []
        while True:
            r = int(rand() * (1 + nb + len(dang)))
            if r == 0:
                if not below:
                    break
                under_nb, under = below.pop()
                nb += under_nb
                under.extend(dang)
                dang = under
            elif r <= nb:
                hits += 1
                break
            else:
                idx = r - 1 - nb
                child = dang[idx]
                dang[idx] = dang[-1]
                dang.pop()
                below.append((nb, dang))
                nb, dang = fresh[child]
                dang = dang[:]
    p = hits / trials
    return p, math.sqrt(p * (1 - p) / trials)


# -- loop-erased random walk under Boltzmann conductances ----------------


@dataclass
class LerwRun:
    """One loop-erased walk: final branch, erased edges, and the cut at the
    last visit to the start vertex."""

    branch: list[EdgeId]
    erased: set[EdgeId]
    erased_before_leaving_start: set[EdgeId]
    steps: int


def wilson_lerw(graph: DirectedMultigraph, conductances: WeightAssignment,
                start: VertexId, seed: int, step_cap: int = 100_000,
                *, boundary: set[VertexId] | None = None) -> LerwRun:
    """Loop-erased random walk from start to the boundary.

    Transition probabilities are proportional to the conductances over the
    tail's outgoing edges.  A vertex's transition table (running sums of
    its out-edges' conductances, with their heads) is built on its first
    visit, so a step is one lookup, one ``rand()`` and one bisection.
    Cycles are erased chronologically; the erased set ignores multiplicity.
    Raises StepCapReachedError past the cap.
    """
    stop = boundary if boundary is not None else set(graph.boundary)
    rand = random.Random(derive(seed, "lerw")).random
    heads = graph.heads
    # vertex -> (cumulative conductances, total, last index, out-edges, heads)
    table: dict[VertexId, tuple[list[float], float, int, list[EdgeId], list[VertexId]]] = {}
    path: list[EdgeId] = []
    on_path: dict[VertexId, int] = {start: -1}
    erased_at: dict[EdgeId, int] = {}
    last_at_start = 0
    x = start
    for t in range(1, step_cap + 1):
        entry = table.get(x)
        if entry is None:
            out = graph.out_edges(x)
            if not out:
                raise PreconditionViolatedError(f"vertex {x} has no outgoing edge")
            cum = []
            acc = 0.0
            for e in out:
                acc += float(conductances.base(e))
                cum.append(acc)
            if acc <= 0.0:
                raise PreconditionViolatedError(f"vertex {x} has zero total conductance")
            entry = table[x] = (cum, acc, len(out) - 1, out, [heads[e] for e in out])
        cum, total, last, out, out_heads = entry
        # searching cum[:-1] leaves the last edge when rand() * total rounds
        # up to the total
        i = bisect_right(cum, rand() * total, 0, last)
        e = out[i]
        h = out_heads[i]
        if h in stop:
            path.append(e)
            early = {edge for edge, when in erased_at.items() if when <= last_at_start}
            return LerwRun(branch=path, erased=set(erased_at),
                           erased_before_leaving_start=early, steps=t)
        j = on_path.get(h)
        if j is None:
            path.append(e)
            on_path[h] = len(path) - 1
        else:
            for removed in path[j + 1:]:
                if removed not in erased_at:
                    erased_at[removed] = t
                del on_path[heads[removed]]
            if e not in erased_at:
                erased_at[e] = t
            del path[j + 1:]
            if j < 0:  # the loop closed at the start
                last_at_start = t
        x = h
    raise StepCapReachedError(f"loop-erased walk exceeded {step_cap} steps")


@dataclass
class ErasedEdgeReport:
    """Erased-versus-contracted comparison for one walk pair."""

    erased: frozenset[EdgeId]
    cleb_cycle_edges: frozenset[EdgeId]
    cleb_removed_edges: frozenset[EdgeId]
    sandwiched: bool


def first_epoch_contraction_sets(graph: DirectedMultigraph, assign: WeightAssignment,
                                 start: VertexId) -> tuple[frozenset[EdgeId], frozenset[EdgeId]]:
    """Cycle edges and all removed edges of the walk's first epoch.

    The first epoch ends the last time the walk's live path empties; its
    loops are exactly the contractions the deterministic walk performs
    before leaving the start vertex for good.
    """
    from .algorithms import cleb_walk

    record = cleb_walk(graph, assign, start)
    if record.terminal != HIT_BOUNDARY:
        raise StepCapReachedError("contracting walk hit the step cap")
    epoch = record.epochs()[0]
    cycle_edges: set[EdgeId] = set()
    removed: set[EdgeId] = set()
    for loop in epoch.loops:
        cycle_edges.update(loop.cycle)
        removed.update(loop.removed)
    return frozenset(cycle_edges), frozenset(removed)


@dataclass
class SandwichResult:
    beta: float
    trials: int
    successes: int
    capped: int

    @property
    def frequency(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        p = self.frequency
        return math.sqrt(p * (1 - p) / self.trials)


def wilson_sandwich_trial(graph: DirectedMultigraph, base_weights: dict[EdgeId, float],
                          start: VertexId, betas: Sequence[float], trials: int,
                          seed: int, step_cap: int = 100_000
                          ) -> tuple[list[SandwichResult], ErasedEdgeReport | None]:
    """Frequency, per beta, of the erased set landing between the two
    contraction sets of the deterministic walk on the same weights.

    Capped runs count as failures.  Also returns one representative report
    (first beta, first uncapped trial) for inspection, or None when every
    trial capped.  Each beta's random streams are keyed by
    ``int(beta * 1000)``, so betas sharing that key in one call are a
    ConfigError, as is a trial count below one.
    """
    from .weights import BoltzmannConductance, Fixed

    if trials < 1:
        raise ConfigError(f"need at least one trial, not {trials}")
    keys = [int(beta * 1000) for beta in betas]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"betas {list(betas)} share random streams "
                          "(keys are int(beta * 1000))")
    assign = WeightAssignment(Fixed(dict(base_weights)), 0)
    lower, upper = first_epoch_contraction_sets(graph, assign, start)
    results = []
    sample_report: ErasedEdgeReport | None = None
    for beta, key in zip(betas, keys):
        conductances = WeightAssignment(BoltzmannConductance(base_weights, beta), 0)
        ok = 0
        capped = 0
        for i in range(trials):
            try:
                run = wilson_lerw(graph, conductances, start,
                                  derive(seed, "sandwich", key, i),
                                  step_cap=step_cap)
            except StepCapReachedError:
                capped += 1
                continue
            erased = frozenset(run.erased_before_leaving_start)
            good = lower <= erased <= upper
            if good:
                ok += 1
            if sample_report is None:
                sample_report = ErasedEdgeReport(erased=erased, cleb_cycle_edges=lower,
                                                 cleb_removed_edges=upper, sandwiched=good)
        results.append(SandwichResult(beta=beta, trials=trials, successes=ok, capped=capped))
    return results, sample_report


# -- invasion percolation -------------------------------------------------


def build_symmetric_graph(vertices: Sequence[VertexId], boundary: Sequence[VertexId],
                          undirected_edges: Sequence[tuple[VertexId, VertexId]],
                          weights: Sequence[float]
                          ) -> tuple[DirectedMultigraph, list[EdgeId], dict[EdgeId, float]]:
    """Bidirect an undirected weighted graph.

    Returns (graph, reversal map, per-oriented-edge weights): oriented
    edges 2i and 2i+1 are the two orientations of undirected edge i and
    share its weight.
    """
    edges = []
    for (a, b) in undirected_edges:
        edges.append((a, b))
        edges.append((b, a))
    graph = build_graph(vertices, boundary, edges)
    reversal = []
    w: dict[EdgeId, float] = {}
    for i in range(len(undirected_edges)):
        reversal.extend([2 * i + 1, 2 * i])
        w[2 * i] = weights[i]
        w[2 * i + 1] = weights[i]
    return graph, reversal, w


@dataclass
class InvasionSequence:
    """Greedy growth sequence: its first k edges are the invaded tree T_k."""

    start: VertexId
    edges: list[EdgeId]  # canonical (even) orientation ids, in invasion order


def invasion_percolation(graph: DirectedMultigraph, reversal: Sequence[EdgeId],
                         weights: dict[EdgeId, float], start: VertexId) -> InvasionSequence:
    """Grow a tree from start by always invading the cheapest frontier edge."""
    import heapq

    for e, r in enumerate(reversal):
        if weights[e] != weights[r]:
            raise PreconditionViolatedError(f"orientations {e}/{r} carry different weights")
    invaded = {start}
    chosen: list[EdgeId] = []
    heap: list[tuple[float, EdgeId]] = []

    def push_frontier(v: VertexId) -> None:
        for e in graph.out_edges(v):
            heapq.heappush(heap, (weights[e], min(e, reversal[e])))

    push_frontier(start)
    while heap:
        w, e = heapq.heappop(heap)
        a, b = graph.tails[e], graph.heads[e]
        if a in invaded and b in invaded:
            continue
        while heap and heap[0][1] == e:
            heapq.heappop(heap)
        if heap:
            gap = heap[0][0] - w
            if abs(gap) <= DEFAULT_TOLERANCE * max(1.0, abs(w), abs(heap[0][0])):
                nxt = heap[0][1]
                na, nb = graph.tails[nxt], graph.heads[nxt]
                if not (na in invaded and nb in invaded):
                    raise TieDetectedError(w, heap[0][0], "invasion frontier")
        fresh = b if a in invaded else a
        invaded.add(fresh)
        chosen.append(e)
        push_frontier(fresh)
    return InvasionSequence(start=start, edges=chosen)


def kruskal_mst(graph: DirectedMultigraph, reversal: Sequence[EdgeId],
                weights: dict[EdgeId, float]) -> frozenset[EdgeId]:
    """Minimum spanning tree over the unoriented edges (canonical ids)."""
    canon = sorted({min(e, reversal[e]) for e in range(graph.n_edges)},
                   key=lambda e: (weights[e], e))
    parent: dict[VertexId, VertexId] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    tree = set()
    for e in canon:
        a, b = find(graph.tails[e]), find(graph.heads[e])
        if a != b:
            parent[a] = b
            tree.add(e)
    return frozenset(tree)


@dataclass
class InvasionEquivalenceVerdict:
    equal_prefixes: bool
    walk_fresh_count: int
    invasion_matches_kruskal: bool


def invasion_equivalence_check(graph: DirectedMultigraph, reversal: Sequence[EdgeId],
                               weights: dict[EdgeId, float], start: VertexId
                               ) -> InvasionEquivalenceVerdict:
    """Fresh-edge prefixes of the contracting walk versus invasion order.

    Runs the walk on the bidirected graph, takes the exposure times of
    edges whose reversal was not yet exposed, and compares them, unoriented,
    with the start of the invasion sequence.  Each oriented edge is exposed
    at most once and a reversal exposed later is not fresh, so the fresh
    edges are distinct, and equal sequences mean equal prefix sets T_k for
    every k.  Also checks the completed invasion tree against the
    independent minimum spanning tree.
    """
    from .algorithms import cleb_walk
    from .weights import Fixed

    seq = invasion_percolation(graph, reversal, weights, start)
    assign = WeightAssignment(Fixed(dict(weights)), 0)
    record = cleb_walk(graph, assign, start)
    if record.terminal != HIT_BOUNDARY:
        raise StepCapReachedError("walk hit the step cap")
    exposed: set[EdgeId] = set()
    fresh_unoriented: list[EdgeId] = []
    for s in record.steps:
        e = s.edge
        if reversal[e] not in exposed:
            fresh_unoriented.append(min(e, reversal[e]))
        exposed.add(e)
    mst = kruskal_mst(graph, reversal, weights)
    return InvasionEquivalenceVerdict(
        equal_prefixes=fresh_unoriented == seq.edges[:len(fresh_unoriented)],
        walk_fresh_count=len(fresh_unoriented),
        invasion_matches_kruskal=(frozenset(seq.edges) == mst))
