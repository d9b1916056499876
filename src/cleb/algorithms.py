"""Cycle-contracting computation of minimal spanning arborescences.

The front-ends differ only in the order in which they reveal; the
arborescence and the colored exposed set are the same for every order.
Two of them share one step (:meth:`_Exposure.settle`): reveal a vertex,
and while that closes a cycle of exposed edges, contract it and reveal
the new supervertex.

* :func:`original_cleb` reveals every vertex's cheapest outgoing edge at
  once, contracts the disjoint cycles this closes in one pass, and then
  settles each new supervertex;
* :func:`sequential_cleb` settles the vertices of a caller-given order
  one at a time;
* :func:`cleb_walk` is the sequential variant whose next vertex is always
  the head of the last exposed edge (or the freshly contracted vertex),
  and :func:`cleb_walk_algorithm` chains such walks over a growing
  boundary until the graph is exhausted.  Its loop takes the step rule
  as an argument and also drives the uniform loop-contracting walk of
  :mod:`cleb.walks`.

The three whole-graph solves sample every base weight in one vectorized
pass on entry; a lone :func:`cleb_walk` samples only the edges it scans.
All variants end with the same backward pass: popping contraction records
in reverse and pulling the arborescence through each one.  Exposed edges
carry colors (contraction depth levels); for generic weights the colored
exposed set is the same for every revelation order, which the test suite
checks rather than assumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

from .errors import (
    BadChooserError,
    DisconnectedError,
    IncompleteWalkError,
    NoOutgoingEdgeError,
    NotSpanningError,
)
from .graph import (
    Arborescence,
    ContractionRecord,
    ContractionStack,
    DirectedMultigraph,
    EdgeId,
    VertexId,
    functional_cycles,
    meet_vertex,
    uncontract,
)
from .weights import WeightAssignment, min_out_subtract

HIT_BOUNDARY = "hit_boundary"
STEP_CAP = "step_cap_reached"


@dataclass(slots=True)
class ExposureStep:
    step: int
    vertex: VertexId
    edge: EdgeId
    pi: object
    color: int
    record: ContractionRecord | None = None


@dataclass
class ExposureLog:
    """Ordered record of one run: exposures, colors, contraction events."""

    steps: list[ExposureStep] = field(default_factory=list)
    colors: dict[EdgeId, int] = field(default_factory=dict)

    def records(self) -> list[ContractionRecord]:
        return [s.record for s in self.steps if s.record is not None]

    def colored_exposure_set(self) -> frozenset[tuple[EdgeId, int]]:
        return frozenset(self.colors.items())

    def write_jsonl(self, path) -> None:
        """One JSON object per event: an expose row, then a contract row
        for steps that closed a cycle."""
        with open(path, "w") as fh:
            for s in self.steps:
                row = {"step": s.step, "event": "expose", "edge": s.edge,
                       "color": s.color, "pi": float(s.pi)}
                fh.write(json.dumps(row) + "\n")
                if s.record is not None:
                    row = {"step": s.step, "event": "contract",
                           "edge": s.edge, "color": s.color,
                           "cycle": list(s.record.cycle), "pi": float(s.pi)}
                    fh.write(json.dumps(row) + "\n")


class _Exposure:
    """Shared bookkeeping: exposed-out map, colors, and the event log."""

    def __init__(self, stack: ContractionStack, assign: WeightAssignment):
        self.stack = stack
        self.assign = assign
        self.exposed_out: dict[VertexId, EdgeId] = {}
        self.vertex_color: dict[VertexId, int] = {}
        self.log = ExposureLog()

    def reveal(self, v: VertexId) -> ExposureStep:
        """Subtract v's minimum and log the newly exposed edge.  A
        supervertex with no live outgoing edge cannot reach the boundary:
        DisconnectedError."""
        try:
            edge, pi = min_out_subtract(self.assign, self.stack, v)
        except NoOutgoingEdgeError as err:
            raise DisconnectedError(str(err)) from err
        color = self.vertex_color.get(v, 1)
        step = ExposureStep(len(self.log.steps) + 1, v, edge, pi, color)
        self.log.steps.append(step)
        self.log.colors[edge] = color
        self.exposed_out[v] = edge
        return step

    def contract(self, cycle: Sequence[EdgeId], step: ExposureStep) -> ContractionRecord:
        level = 1 + max(map(self.log.colors.__getitem__, cycle))
        record = self.stack.contract_cycle(cycle)
        for member in record.members:
            self.exposed_out.pop(member, None)
        self.vertex_color[record.supervertex] = level
        step.record = record
        return record

    def cycle_through(self, edge: EdgeId, v: VertexId) -> list[EdgeId] | None:
        """Cycle closed by exposing `edge` at v, following exposed successors."""
        stack = self.stack
        exposed = self.exposed_out
        chain = [edge]
        x = stack.head(edge)
        while x != v:
            nxt = exposed.get(x)
            if nxt is None:
                return None
            chain.append(nxt)
            x = stack.head(nxt)
        return chain

    def settle(self, v: VertexId) -> None:
        """Reveal v; while that closes a cycle, contract it and reveal the
        new supervertex.  Exposed edges that held no cycle hold none after."""
        while True:
            step = self.reveal(v)
            cycle = self.cycle_through(step.edge, v)
            if cycle is None:
                return
            v = self.contract(cycle, step).supervertex

    def terminal_arborescence(self) -> Arborescence:
        """Exposed live edges, one per live non-boundary supervertex."""
        stack = self.stack
        boundary = {stack.resolve(b) for b in stack.base.boundary}
        outgoing = {}
        for v in stack.live_vertices():
            if v in boundary:
                continue
            e = self.exposed_out.get(v)
            if e is None:
                raise NotSpanningError(f"supervertex {v} was never revealed")
            outgoing[v] = e
        return Arborescence(outgoing)


def _unwind(stack: ContractionStack, arb: Arborescence) -> Arborescence:
    """Pop every contraction record in reverse, pulling arb back to the base in place."""
    while stack.records:
        arb = uncontract(stack, stack.records[-1], arb, validate=False)
    return arb


def original_cleb(graph: DirectedMultigraph, assign: WeightAssignment
                  ) -> tuple[Arborescence, ExposureLog]:
    """Reveal all minima at once, contract the cycles, then settle the rest.

    The first reveals form a functional graph whose cycles are disjoint;
    each is contracted on the step of its last-exposed edge.  Each new
    supervertex is then settled in turn: with those cycles gone, a cycle
    can only close through the vertex just revealed.  Returns the minimal
    spanning arborescence together with the exposure log.  Raises
    DisconnectedError when some vertex cannot reach the boundary,
    TieDetectedError on a genericity failure.
    """
    assign.sample_all(graph.n_edges)
    stack = ContractionStack(graph)
    exp = _Exposure(stack, assign)
    for v in graph.vertices:
        if v not in graph.boundary:
            exp.reveal(v)
    step_of = {s.edge: s for s in exp.log.steps}
    cycles = list(functional_cycles(exp.exposed_out, graph.heads.__getitem__))
    records = [exp.contract(cycle, max(map(step_of.get, cycle), key=attrgetter("step")))
               for cycle in cycles]
    for record in records:
        exp.settle(record.supervertex)
    arb = exp.terminal_arborescence()
    return _unwind(stack, arb), exp.log


def sequential_cleb(graph: DirectedMultigraph, assign: WeightAssignment,
                    order: Sequence[VertexId]) -> tuple[Arborescence, ExposureLog]:
    """Settle the supervertices of `order`'s entries one at a time.

    Entries that are not graph vertices, are boundary vertices, or resolve
    to an already revealed supervertex are skipped, so a supervertex is
    revealed at its earliest member in `order`; one with no member there
    is never revealed.  The resulting arborescence is the same for every
    order that covers the inner vertices, and so is the colored exposed
    set.
    """
    assign.sample_all(graph.n_edges)
    stack = ContractionStack(graph)
    exp = _Exposure(stack, assign)
    vertices, boundary = graph._vset, graph.boundary
    for x in order:
        if x in vertices and x not in boundary:
            v = stack.resolve(x)
            if v not in exp.exposed_out:
                exp.settle(v)
    arb = exp.terminal_arborescence()
    return _unwind(stack, arb), exp.log


@dataclass(slots=True)
class WalkStep:
    step: int
    vertex: VertexId
    edge: EdgeId
    pi: object  # effective weight at exposure; None for the uniform walk
    event: str  # "extend" | "contract" | "hit_boundary"
    cut: int | None = None  # path length a contraction folded back to
    record: ContractionRecord | None = None
    path_len: int = 0  # live path edges after this step

    @property
    def cycle_len(self) -> int:
        """Contracted cycle length (0 unless contracting)."""
        return len(self.record.cycle) if self.record is not None else 0


@dataclass
class EpochSummary:
    """One walk epoch: its loops, seed edge, and stopping time.

    ``tau`` is the last step after which the live path equals the epoch's
    base prefix; ``seed_edge`` is exposed at ``tau + 1`` and never
    contracted afterwards.
    """

    index: int
    tau: int
    seed_edge: EdgeId
    loops: list[ContractionRecord]


@dataclass
class WalkRecord:
    """Complete log of a single contracting walk (by minimum or uniform
    steps), with path statistics and retrospective epoch analysis."""

    start: VertexId
    steps: list[WalkStep]
    terminal: str  # HIT_BOUNDARY or STEP_CAP
    log: ExposureLog | None = None  # exposure log; None for the uniform walk

    @property
    def censored(self) -> bool:
        return self.terminal == STEP_CAP

    @property
    def exposed(self) -> list[EdgeId]:
        return [s.edge for s in self.steps]

    def returns_to_empty(self) -> int:
        return sum(1 for s in self.steps if s.path_len == 0)

    def max_path_len(self) -> int:
        return max((s.path_len for s in self.steps), default=0)

    def write_csv(self, path, positions: Sequence[tuple[int, int]] | None = None) -> None:
        """CSV trace: step,event,path_len,cycle_len[,x,y]."""
        with open(path, "w") as fh:
            header = "step,event,path_len,cycle_len"
            if positions is not None:
                header += ",x,y"
            fh.write(header + "\n")
            for i, s in enumerate(self.steps, 1):
                row = f"{i},{s.event},{s.path_len},{s.cycle_len}"
                if positions is not None:
                    x, y = positions[i - 1]
                    row += f",{x},{y}"
                fh.write(row + "\n")

    def final_path(self) -> list[WalkStep]:
        """Steps whose edges survive on the live path at termination."""
        path: list[WalkStep] = []
        for s in self.steps:
            if s.event == "contract":
                del path[s.cut:]
            else:
                path.append(s)
        return path

    def epochs(self) -> list[EpochSummary]:
        """Split the walk at the placements of its permanent path edges.

        The live path can only lose edges from its tail, so the edges on
        the final path are exactly the never-contracted ones, and the last
        time the path equals its first j-1 permanent edges is the step
        right before permanent edge j appears.  Loops contracted between
        two placements belong to the later edge's epoch.  On capped runs
        the same analysis applies to the observed prefix (the record stays
        flagged censored); trailing loops after the last surviving
        placement belong to no epoch.
        """
        permanent = self.final_path()
        records = [(s.step, s.record) for s in self.steps if s.record is not None]
        out: list[EpochSummary] = []
        r = 0
        prev_sigma = 0
        for j, s in enumerate(permanent, 1):
            loops = []
            while r < len(records) and records[r][0] < s.step:
                if records[r][0] > prev_sigma:
                    loops.append(records[r][1])
                r += 1
            out.append(EpochSummary(index=j, tau=s.step - 1,
                                    seed_edge=s.edge, loops=loops))
            prev_sigma = s.step
        return out


def _contracting_walk(stack: ContractionStack, start: VertexId, step_cap: int,
                      absorbing: set[VertexId],
                      reveal: Callable[[VertexId], tuple[EdgeId, object]],
                      contract: Callable[[list[EdgeId]], ContractionRecord]
                      ) -> tuple[list[WalkStep], str]:
    """The contracting-walk loop, under a caller-supplied step rule.

    ``reveal(v)`` picks the next edge out of the live supervertex v and
    returns it with its effective weight; ``contract(cycle)`` folds a
    closed loop of the live path into a supervertex and returns its
    record.  The loop owns the live path: a head in `absorbing` ends the
    walk, a head on the path closes a loop, anything else extends the
    path.  Reaching `step_cap` is an outcome, not an error.  Returns the
    steps and the terminal.
    """
    current = stack.resolve(start)
    if current in absorbing:
        raise BadChooserError(f"walk start {start} is absorbing")
    path_vertices = [current]
    pos = {current: 0}
    path_edges: list[EdgeId] = []
    steps: list[WalkStep] = []
    head = stack.head
    while len(steps) < step_cap:
        edge, pi = reveal(current)
        h = head(edge)
        t = len(steps) + 1
        if h in absorbing:
            steps.append(WalkStep(t, current, edge, pi, "hit_boundary",
                                  None, None, len(path_edges) + 1))
            return steps, HIT_BOUNDARY
        j = pos.get(h)
        if j is None:
            pos[h] = len(path_vertices)
            path_vertices.append(h)
            path_edges.append(edge)
            steps.append(WalkStep(t, current, edge, pi, "extend", None, None, len(path_edges)))
            current = h
        else:
            path_edges.append(edge)
            record = contract(path_edges[j:])
            for v in path_vertices[j:]:
                del pos[v]
            del path_vertices[j:]
            del path_edges[j:]
            steps.append(WalkStep(t, current, edge, pi, "contract", j, record, j))
            current = record.supervertex
            path_vertices.append(current)
            pos[current] = j
    return steps, STEP_CAP


def cleb_walk(graph: DirectedMultigraph, assign: WeightAssignment, start: VertexId,
              step_cap: int = 1_000_000, *, stack: ContractionStack | None = None,
              exposure: _Exposure | None = None,
              absorbing: set[VertexId] | None = None) -> WalkRecord:
    """Walk from `start`, always revealing at the head of the last exposure.

    Stops on reaching the boundary or at the step cap; hitting the cap is
    an outcome, not an error.  When `absorbing` is given it must already
    contain the resolved boundary and is used as the stop set verbatim
    (the walk-algorithm driver grows one such set across walks).
    """
    stack = stack if stack is not None else ContractionStack(graph)
    exp = exposure if exposure is not None else _Exposure(stack, assign)
    if absorbing is None:
        absorbing = {stack.resolve(b) for b in graph.boundary}

    def reveal(v: VertexId) -> tuple[EdgeId, object]:
        estep = exp.reveal(v)
        return estep.edge, estep.pi

    def contract(cycle: list[EdgeId]) -> ContractionRecord:
        return exp.contract(cycle, exp.log.steps[-1])

    steps, terminal = _contracting_walk(stack, start, step_cap, absorbing, reveal, contract)
    return WalkRecord(start, steps, terminal, exp.log)


def cleb_walk_algorithm(graph: DirectedMultigraph, assign: WeightAssignment,
                        order: Sequence[VertexId] | None = None,
                        step_cap: int = 1_000_000
                        ) -> tuple[Arborescence, list[WalkRecord]]:
    """Chain walks over a growing boundary, then unwind to the arborescence.

    Each walk runs until it hits the union of the original boundary and
    everything exposed by earlier walks; the full reverse uncontraction of
    all walks' records yields the minimal spanning arborescence.
    """
    if order is None:
        order = [v for v in graph.vertices if v not in graph.boundary]
    assign.sample_all(graph.n_edges)
    stack = ContractionStack(graph)
    exp = _Exposure(stack, assign)
    visited: set[VertexId] = set(graph.boundary)
    absorbing: set[VertexId] = {stack.resolve(b) for b in graph.boundary}
    walks: list[WalkRecord] = []
    tails, heads = graph.tails, graph.heads
    resolve = stack.resolve
    for x in order:
        if x in visited:
            continue
        rec = cleb_walk(graph, assign, x, step_cap=step_cap,
                        stack=stack, exposure=exp, absorbing=absorbing)
        if rec.terminal != HIT_BOUNDARY:
            raise IncompleteWalkError(f"walk from {x} hit the step cap")
        walks.append(rec)
        for s in rec.steps:
            e = s.edge
            for endpoint in (tails[e], heads[e]):
                if endpoint not in visited:
                    visited.add(endpoint)
                absorbing.add(resolve(endpoint))
    missing = [v for v in graph.vertices if v not in visited]
    if missing:
        raise DisconnectedError(f"vertices never reached: {missing[:5]}")
    arb = exp.terminal_arborescence()
    return _unwind(stack, arb), walks


def recover_branch(graph: DirectedMultigraph, record: WalkRecord
                   ) -> tuple[Arborescence, set[VertexId]]:
    """Rebuild the arborescence fragment a finished walk determines.

    Replays all of the walk's loops on one scratch stack, maps the
    resolved tail of each permanent (final-path) edge to that edge, and
    unwinds.  Each loop's supervertex is either folded by a later loop or
    the tail of a permanent edge, so every supervertex popped has its
    edge.  The result is a sub-arborescence of the instance's minimal
    spanning arborescence, with exactly one edge into the boundary, and
    ``reached`` holds the endpoints of its edges.
    """
    if record.terminal != HIT_BOUNDARY:
        raise IncompleteWalkError("walk did not reach the boundary")
    stack = ContractionStack(graph)
    for s in record.steps:
        if s.record is not None:
            stack.contract_cycle(s.record.cycle)
    seeds = {stack.resolve(graph.tails[s.edge]): s.edge for s in record.final_path()}
    gamma = _unwind(stack, Arborescence(seeds))
    reached = set()
    for e in gamma.outgoing.values():
        reached.add(graph.tails[e])
        reached.add(graph.heads[e])
    return gamma, reached


def connectivity_profile(graph: DirectedMultigraph, arb: Arborescence,
                         pairs: Sequence[tuple[VertexId, VertexId]]) -> list[int]:
    """1 per pair whose futures merge strictly before the boundary."""
    bits = []
    for u, v in pairs:
        m = meet_vertex(graph, arb, u, v)
        bits.append(0 if m is None or m in graph.boundary else 1)
    return bits

