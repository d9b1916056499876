"""Brute-force ground truth and Monte Carlo estimates for small instances.

Everything here is deliberately independent of the contraction machinery:
arborescences are enumerated by trying every outgoing-edge choice with
cycle pruning, counts are cross-checked against a determinant, and the
minimum is found by comparing totals.  These are the oracles the fast
algorithms are tested against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    PreconditionViolatedError,
    TieDetectedError,
    TooLargeError,
)
from .graph import Arborescence, DirectedMultigraph, EdgeId, VertexId, future_edges, meet_vertex
from .util import mix64, mix64_array, u01_from_bits
from .weights import (
    DEFAULT_TOLERANCE,
    Exponential,
    Fixed,
    Uniform01,
    WeightAssignment,
    WeightModel,
    rational_jitter,
)


def enumerate_arborescences(graph: DirectedMultigraph,
                            cap: int = 10_000_000) -> list[Arborescence]:
    """All spanning arborescences, in a deterministic order.

    Tries every combination of one outgoing edge per non-boundary vertex,
    pruning as soon as a partial choice closes a cycle.  Refuses instances
    whose out-degree product exceeds `cap`.
    """
    inner = [v for v in graph.vertices if v not in graph.boundary]
    product = 1
    for v in inner:
        product *= max(1, len(graph.out_edges(v)))
        if product > cap:
            raise TooLargeError(f"out-degree product exceeds {cap}")
    heads = graph.heads
    boundary = graph.boundary
    results: list[Arborescence] = []
    choice: dict[VertexId, EdgeId] = {}

    def closes_cycle(v: VertexId, e: EdgeId) -> bool:
        x = heads[e]
        while x not in boundary:
            if x == v:
                return True
            nxt = choice.get(x)
            if nxt is None:
                return False
            x = heads[nxt]
        return False

    def rec(i: int) -> None:
        if i == len(inner):
            results.append(Arborescence(dict(choice)))
            return
        v = inner[i]
        for e in graph.out_edges(v):
            if not closes_cycle(v, e):
                choice[v] = e
                rec(i + 1)
                del choice[v]

    rec(0)
    return results


def arborescence_count_determinant(graph: DirectedMultigraph) -> int:
    """Matrix-tree count of spanning arborescences (exact arithmetic).

    Secondary oracle for enumeration: the determinant of the out-degree
    Laplacian restricted to non-boundary vertices, with every boundary
    vertex acting as one absorbing root.
    """
    inner = [v for v in graph.vertices if v not in graph.boundary]
    index = {v: i for i, v in enumerate(inner)}
    n = len(inner)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for _, t, h in graph.edges():
        i = index.get(t)
        if i is None:
            continue
        mat[i][i] += 1
        j = index.get(h)
        if j is not None:
            mat[i][j] -= 1
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            det = -det
        pivot = mat[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = mat[r][col] / pivot
            if factor:
                row = mat[r]
                prow = mat[col]
                for c in range(col, n):
                    row[c] -= factor * prow[c]
    assert det.denominator == 1
    return int(det)


def total_weight(assign: WeightAssignment, arb: Arborescence):
    return sum(assign.base(e) for e in arb.outgoing.values())


def brute_force_msa(graph: DirectedMultigraph, assign: WeightAssignment,
                    cap: int = 10_000_000) -> Arborescence:
    """Unique minimizer of total base weight over all spanning arborescences."""
    arbs = enumerate_arborescences(graph, cap=cap)
    if not arbs:
        raise TooLargeError("instance has no spanning arborescence")
    best = second = None
    best_arb = None
    for arb in arbs:
        w = total_weight(assign, arb)
        if best is None or w < best:
            second = best
            best = w
            best_arb = arb
        elif second is None or w < second:
            second = w
    if second is not None:
        assign.require_distinct(best, second, "brute-force minimum")
    return best_arb


@dataclass
class DistributionCell:
    signature: tuple[EdgeId, ...]
    count: int
    freq: float
    stderr: float


@dataclass
class InstanceDistributionReport:
    """Empirical law of the minimal arborescence under sampled weights."""

    samples: int
    cells: list[DistributionCell]

    def freq_of(self, signature: Sequence[EdgeId]) -> float:
        sig = tuple(sorted(signature))
        for cell in self.cells:
            if cell.signature == sig:
                return cell.freq
        return 0.0


def _u01_grid(seed: int, rows: np.ndarray, n_cols: int) -> np.ndarray:
    """Vectorized per-(replica, edge) uniforms: u01(seed, row, col) for every cell."""
    h1 = mix64_array(rows.astype(np.uint64) ^ np.uint64(mix64(seed)))
    cols = np.arange(n_cols, dtype=np.uint64)
    return u01_from_bits(mix64_array(h1[:, None] ^ cols[None, :]))


def _sample_weight_matrix(model: WeightModel, seed: int, rows: np.ndarray,
                          n_edges: int) -> np.ndarray:
    u = _u01_grid(seed, rows, n_edges)
    if isinstance(model, Exponential):
        return -np.log1p(-u) / model.rate
    if isinstance(model, Uniform01):
        return u
    raise PreconditionViolatedError(
        f"Monte Carlo sampling needs a random model, got {model.spec}")


# cells in one chunk's widest array (rows x max(edges, arborescences)):
# about half a megabyte of doubles, so a chunk's temporaries stay in cache
CHUNK_CELLS = 1 << 16


def msa_distribution(graph: DirectedMultigraph, model: WeightModel, samples: int,
                     seed: int, cap: int = 10_000_000,
                     tolerance: float = DEFAULT_TOLERANCE
                     ) -> tuple[InstanceDistributionReport, list[Arborescence]]:
    """Sample weights repeatedly and tally which arborescence wins.

    Rows are drawn in chunks of about CHUNK_CELLS cells.  A row whose two
    smallest totals are within tolerance is redrawn with a sub-seed
    derived from the seed and the retry, keyed by its global row number, so
    every completed sample contributes exactly one cell and the counts do
    not depend on the chunk size.
    """
    if samples < 1:
        raise ConfigError(f"need at least one sample, not {samples}")
    arbs = enumerate_arborescences(graph, cap=cap)
    if not arbs:
        raise TooLargeError("instance has no spanning arborescence")
    m = graph.n_edges
    incidence = np.zeros((len(arbs), m))
    for i, arb in enumerate(arbs):
        for e in arb.outgoing.values():
            incidence[i, e] = 1.0
    counts = np.zeros(len(arbs), dtype=np.int64)
    chunk = max(1, CHUNK_CELLS // max(m, len(arbs)))
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        rows = np.arange(done, done + n, dtype=np.uint64)
        totals = _sample_weight_matrix(model, seed, rows, m) @ incidence.T
        winners = totals.argmin(axis=1)
        if len(arbs) > 1:
            todo = np.arange(n)  # rows of this chunk whose latest draw is unchecked
            for retry in range(1, 6):
                # the runner-up is the row minimum with the winner masked out
                at = np.arange(len(todo))
                best = totals[at, winners[todo]]
                totals[at, winners[todo]] = np.inf
                second = totals.min(axis=1)
                scale = np.maximum(1.0, np.maximum(np.abs(best), np.abs(second)))
                todo = todo[second - best <= tolerance * scale]
                if todo.size == 0:
                    break
                totals = _sample_weight_matrix(model, mix64(seed ^ retry), rows[todo],
                                               m) @ incidence.T
                winners[todo] = totals.argmin(axis=1)
            else:
                raise TieDetectedError(0, 0, "persistent ties in Monte Carlo sampling")
        counts += np.bincount(winners, minlength=len(arbs))
        done += n
    cells = []
    for i, arb in enumerate(arbs):
        c = int(counts[i])
        p = c / samples
        cells.append(DistributionCell(signature=tuple(sorted(arb.edge_set())),
                                      count=c, freq=p,
                                      stderr=math.sqrt(p * (1 - p) / samples)))
    cells.sort(key=lambda cell: cell.signature)
    return InstanceDistributionReport(samples=samples, cells=cells), arbs


def msa_event_probability(graph: DirectedMultigraph, target: Arborescence,
                          model: WeightModel, samples: int, seed: int,
                          cap: int = 10_000_000) -> tuple[float, float]:
    """Estimate P(minimal arborescence == target) with its standard error."""
    report, _ = msa_distribution(graph, model, samples, seed, cap=cap)
    sig = tuple(sorted(target.edge_set()))
    for cell in report.cells:
        if cell.signature == sig:
            return cell.freq, cell.stderr if cell.stderr > 0 else math.sqrt(1.0 / samples)
    raise PreconditionViolatedError("target is not a spanning arborescence of the instance")


@dataclass
class PerturbationOutcome:
    matched: bool
    mode: str
    expected: frozenset[EdgeId]
    recovered: frozenset[EdgeId]
    sigma: frozenset[VertexId]


def perturb_and_verify(graph: DirectedMultigraph, assign: WeightAssignment,
                       v: VertexId, e1: EdgeId, e2: EdgeId, mode: str,
                       jitter_seed: int = 0) -> PerturbationOutcome:
    """Raise weights around a swap region and check the minimum moves as predicted.

    Modes pick the region: ``lemma1`` uses the two futures until they
    merge, ``lemma2`` the first-epoch closure of a walk from v.  Every
    outgoing edge of the region that is neither kept by the old minimum
    nor the designated replacement is pushed above twice the regional
    maximum (with fresh jitter to stay generic); the new minimum must be
    the old one with e1 swapped for e2.
    """
    t_star = brute_force_msa(graph, assign)
    if t_star.outgoing.get(v) != e1:
        raise PreconditionViolatedError(f"edge {e1} is not the minimum's edge out of {v}")
    if graph.tails[e2] != v or e2 == e1:
        raise PreconditionViolatedError(f"edge {e2} must also leave {v}")
    u = graph.heads[e2]
    if v in _future_vertices(graph, t_star, u):
        raise PreconditionViolatedError(f"{v} lies on the future of {u}")

    if mode == "lemma1":
        sigma = _futures_until_merge(graph, t_star, u, v)
    elif mode == "lemma2":
        sigma = _first_epoch_region(graph, assign, v)
    else:
        raise PreconditionViolatedError(f"unknown mode {mode!r}")

    region_edges = {e for y in sigma for e in graph.out_edges(y)}
    m_sigma = max(assign.base(e) for e in region_edges)
    keep = t_star.edge_set() | {e2}
    rng = random.Random(jitter_seed)
    drawn: set = set()
    new_values: dict[EdgeId, object] = {}
    for e in range(graph.n_edges):
        base = assign.base(e)
        if (e in region_edges and e not in keep) or e == e1:
            jitter = rational_jitter(rng)
            while jitter in drawn:
                jitter = rational_jitter(rng)
            drawn.add(jitter)
            new_values[e] = 2 * m_sigma + jitter
        else:
            new_values[e] = base
    perturbed = WeightAssignment(Fixed(new_values), 0)
    expected = (t_star.edge_set() - {e1}) | {e2}
    recovered = brute_force_msa(graph, perturbed).edge_set()
    return PerturbationOutcome(matched=(recovered == expected), mode=mode,
                               expected=frozenset(expected),
                               recovered=frozenset(recovered),
                               sigma=frozenset(sigma))


def _future_vertices(graph: DirectedMultigraph, arb: Arborescence,
                     x: VertexId) -> set[VertexId]:
    out = {x}
    while x in arb.outgoing:
        x = graph.heads[arb.outgoing[x]]
        out.add(x)
    return out


def _futures_until_merge(graph: DirectedMultigraph, arb: Arborescence,
                         u: VertexId, v: VertexId) -> set[VertexId]:
    merge = meet_vertex(graph, arb, u, v)
    shared: set[EdgeId] = set()
    if merge is not None:
        shared = set(future_edges(graph, arb, merge))
    edges = (set(future_edges(graph, arb, u)) | set(future_edges(graph, arb, v))) - shared
    endpoints: set[VertexId] = {u, v}
    for e in edges:
        endpoints.add(graph.tails[e])
        endpoints.add(graph.heads[e])
    endpoints.discard(merge)
    return endpoints - graph.boundary


def _first_epoch_region(graph: DirectedMultigraph, assign: WeightAssignment,
                        v: VertexId) -> set[VertexId]:
    from .algorithms import HIT_BOUNDARY, cleb_walk

    fresh = WeightAssignment(assign.model, assign.seed, key_of=assign.key_of,
                             tolerance=assign.tolerance)
    record = cleb_walk(graph, fresh, v)
    if record.terminal != HIT_BOUNDARY:
        raise PreconditionViolatedError("walk from v hit the step cap")
    epoch = record.epochs()[0]
    endpoints: set[VertexId] = set()
    for s in record.log.steps[:epoch.tau + 1]:
        endpoints.add(graph.tails[s.edge])
        endpoints.add(graph.heads[s.edge])
    endpoints.add(graph.tails[epoch.seed_edge])
    endpoints.add(graph.heads[epoch.seed_edge])
    endpoints.discard(graph.heads[epoch.seed_edge])
    return endpoints - graph.boundary
