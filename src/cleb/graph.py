"""Directed multigraphs with boundary, cycle contraction, and uncontraction.

Edge identity is permanent: contraction never renames an edge, it only
changes how its endpoints resolve.  A :class:`ContractionStack` layers an
undoable union-find over a base graph, so the backward (uncontraction)
pass can pop records in strict stack order and recover every intermediate
view exactly.

Both directions cost only the region they touch.  Building a stack is
O(1) apart from zeroing one dead-flag byte per edge: a supervertex copies
its out-list from the base graph on its first union.
:func:`uncontract` pulls the arborescence back in place, so a full unwind
is linear in the total size of the contracted cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    DisconnectedKeptSetError,
    DuplicateEdgeIdError,
    EmptyBoundaryError,
    NotACycleError,
    NotSpanningError,
    RecordNotTopError,
    SelfLoopError,
    TouchesBoundaryError,
    UnknownVertexError,
)

VertexId = int
EdgeId = int


class DirectedMultigraph:
    """Immutable directed multigraph with a distinguished boundary set.

    Edges are identified by their position in the construction order
    (EdgeId = 0..m-1).  Parallel edges are allowed; self-loops are not.
    Vertex ids from ``id_bound`` (largest id + 1, or 0) up are free.
    """

    __slots__ = ("vertices", "boundary", "tails", "heads", "_out", "_vset", "id_bound")

    def __init__(self, vertices: Iterable[VertexId], boundary: Iterable[VertexId],
                 edges: Sequence[tuple[VertexId, VertexId]]):
        self.vertices: tuple[VertexId, ...] = tuple(vertices)
        self._vset = frozenset(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise UnknownVertexError("duplicate vertex ids")
        self.id_bound: VertexId = (max(self.vertices) + 1) if self.vertices else 0
        self.boundary: frozenset[VertexId] = frozenset(boundary)
        if not self.boundary <= self._vset:
            raise UnknownVertexError("boundary vertex not in vertex set")
        tails = []
        heads = []
        out: dict[VertexId, list[EdgeId]] = {v: [] for v in self.vertices}
        for eid, (t, h) in enumerate(edges):
            if t == h:
                raise SelfLoopError(f"edge {eid}: {t} -> {h}")
            if t not in self._vset or h not in self._vset:
                raise UnknownVertexError(f"edge {eid}: {t} -> {h}")
            tails.append(t)
            heads.append(h)
            out[t].append(eid)
        self.tails: list[VertexId] = tails
        self.heads: list[VertexId] = heads
        self._out = out

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def tail(self, e: EdgeId) -> VertexId:
        return self.tails[e]

    def head(self, e: EdgeId) -> VertexId:
        return self.heads[e]

    def out_edges(self, v: VertexId) -> list[EdgeId]:
        return self._out[v]

    def edges(self) -> Iterable[tuple[EdgeId, VertexId, VertexId]]:
        for e in range(len(self.tails)):
            yield e, self.tails[e], self.heads[e]

    def __repr__(self) -> str:
        return (f"DirectedMultigraph(|V|={self.n_vertices}, |E|={self.n_edges}, "
                f"boundary={sorted(self.boundary)})")


def build_graph(vertices: Iterable[VertexId], boundary: Iterable[VertexId],
                edges: Sequence[tuple[VertexId, VertexId]]) -> DirectedMultigraph:
    """Build a graph for use as a spanning-arborescence instance.

    EdgeIds are assigned in input order and never change afterwards.
    """
    g = DirectedMultigraph(vertices, boundary, edges)
    if not g.boundary:
        raise EmptyBoundaryError("an instance needs a nonempty boundary")
    return g


@dataclass(frozen=True)
class ContractionRecord:
    """One contraction event: which cycle, into which fresh supervertex.

    ``members`` are the resolved tails of ``cycle`` at record-creation
    time (aligned index-wise), ``removed`` is every edge that died because
    both of its resolved endpoints were absorbed (cycle edges included).
    """

    cycle: tuple[EdgeId, ...]
    members: tuple[VertexId, ...]
    supervertex: VertexId
    removed: tuple[EdgeId, ...]


@dataclass
class Arborescence:
    """Partial map vertex -> outgoing edge, with no directed cycles."""

    outgoing: dict[VertexId, EdgeId] = field(default_factory=dict)

    def edge_set(self) -> frozenset[EdgeId]:
        return frozenset(self.outgoing.values())

    def __len__(self) -> int:
        return len(self.outgoing)


@dataclass
class Verdict:
    """Outcome of a structural validation; falsy when violations exist."""

    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


class ContractionStack:
    """Mutable contraction state over a fixed base graph.

    Supports ``contract_cycle`` / ``pop`` in strict stack discipline, plus
    a per-lineage potential accumulator used for lazy weight subtraction:
    ``potential(x)`` is the total amount ever subtracted from the outgoing
    edges of the supervertices that vertex ``x`` has belonged to.

    Construction is lazy: a class root reads the base graph's out-list
    until its first union copies it.  A walk therefore pays only for the
    region it explores.
    """

    def __init__(self, graph: DirectedMultigraph, *, allow_compaction: bool = False):
        self.base = graph
        self._allow_compaction = allow_compaction
        self._compacted = False
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}
        # class root -> public supervertex id (absent: root is its own public id)
        self._label: dict[int, int] = {}
        # potential bookkeeping: class-level accumulator at roots, plus the
        # offset of a former root relative to its parent at union time
        self._racc: dict[int, object] = {}
        self._doff: dict[int, object] = {}
        # class root -> own outgoing edge list (may contain dead edges, filtered
        # on read); absent until the root's first union
        self._out: dict[int, list[EdgeId]] = {}
        self._dead = bytearray(graph.n_edges)
        # liveness: base vertices absorbed into some supervertex, plus the
        # live supervertex labels in creation order
        self._absorbed: set[VertexId] = set()
        self._live_labels: dict[VertexId, None] = {}
        self.records: list[ContractionRecord] = []
        self._undo: list[dict] = []
        self._next_label = graph.id_bound

    # -- resolution ---------------------------------------------------

    def _find(self, x: int) -> int:
        parent = self._parent
        while True:
            p = parent.get(x, x)
            if p == x:
                return x
            x = p

    def resolve(self, v: VertexId) -> VertexId:
        """Current supervertex containing v (v itself if never contracted)."""
        r = self._find(v)
        return self._label.get(r, r)

    def tail(self, e: EdgeId) -> VertexId:
        return self.resolve(self.base.tails[e])

    def head(self, e: EdgeId) -> VertexId:
        return self.resolve(self.base.heads[e])

    def is_dead(self, e: EdgeId) -> bool:
        return bool(self._dead[e])

    def is_live_vertex(self, v: VertexId) -> bool:
        return v in self._live_labels or (v in self.base._vset and v not in self._absorbed)

    def live_vertices(self) -> list[VertexId]:
        """Unabsorbed base vertices in base order, then live supervertices."""
        absorbed = self._absorbed
        return [v for v in self.base.vertices if v not in absorbed] + list(self._live_labels)

    def n_live_vertices(self) -> int:
        return self.base.n_vertices - len(self._absorbed) + len(self._live_labels)

    def _out_list(self, root: int) -> list[EdgeId]:
        out = self._out.get(root)
        return self.base._out[root] if out is None else out

    def out_edges(self, v: VertexId) -> list[EdgeId]:
        """Live outgoing edges of a live supervertex.

        With compaction enabled (walk-only stacks that never pop), lists
        whose dead majority makes scans expensive are rebuilt in place.
        """
        dead = self._dead
        root = self._find(v)
        stored = self._out_list(root)
        live = [e for e in stored if not dead[e]]
        if self._allow_compaction and len(stored) > 16 and len(stored) > 2 * len(live):
            self._out[root] = live
            self._compacted = True
        return live

    # -- potentials (lazy weight subtraction) --------------------------

    def add_potential(self, v: VertexId, amount) -> None:
        """Record that `amount` was subtracted from every outgoing edge of v."""
        r = self._find(v)
        self._racc[r] = self._racc.get(r, 0) + amount

    def potential(self, x: VertexId):
        """Total subtraction accumulated along x's supervertex lineage."""
        parent = self._parent
        doff = self._doff
        total = 0
        while True:
            p = parent.get(x, x)
            if p == x:
                return total + self._racc.get(x, 0)
            total += doff.get(x, 0)
            x = p

    # -- contraction ----------------------------------------------------

    def contract_cycle(self, cycle: Sequence[EdgeId]) -> ContractionRecord:
        """Contract a directed cycle of live edges into a fresh supervertex.

        The cycle must chain head-to-tail under the current resolution and
        must not touch the boundary.  Edges with both endpoints absorbed are
        flagged dead; every surviving edge keeps its id.
        """
        cycle = tuple(cycle)
        if len(cycle) < 2:
            raise NotACycleError("a cycle needs at least two live edges")
        tails = []
        for e in cycle:
            if self._dead[e]:
                raise NotACycleError(f"edge {e} is dead")
            tails.append(self.tail(e))
        member_set = set(tails)
        if len(member_set) != len(tails):
            raise NotACycleError("cycle repeats a supervertex")
        for i, e in enumerate(cycle):
            h = self.head(e)
            if h != tails[(i + 1) % len(cycle)]:
                raise NotACycleError(f"edge {e} does not chain into the next tail")
        hit = member_set & self.base.boundary
        if hit:
            raise TouchesBoundaryError(f"cycle passes through boundary {sorted(hit)}")

        undo = {"unions": [], "dead": [], "label": None, "live": tuple(tails)}
        removed = []
        dead = self._dead
        roots = [self._find(t) for t in tails]
        for r in roots:
            for e in self._out_list(r):
                if not dead[e] and self.resolve(self.base.heads[e]) in member_set:
                    dead[e] = 1
                    removed.append(e)
        undo["dead"] = removed

        # union all member classes, then tag the merged class with a fresh id
        root = roots[0]
        for other in roots[1:]:
            root = self._union(root, other, undo)
        label = self._next_label
        self._next_label += 1
        # the fresh public id joins the class so it resolves like any member
        self._parent[label] = root
        undo["label_node"] = label
        undo["label"] = (root, self._label.get(root))
        self._label[root] = label

        for t in tails:
            if t in self._live_labels:
                del self._live_labels[t]
            else:
                self._absorbed.add(t)
        self._live_labels[label] = None

        record = ContractionRecord(cycle=cycle, members=tuple(tails),
                                   supervertex=label, removed=tuple(removed))
        self.records.append(record)
        self._undo.append(undo)
        return record

    def _union(self, ra: int, rb: int, undo: dict) -> int:
        if self._size.get(ra, 1) < self._size.get(rb, 1):
            ra, rb = rb, ra
        out_a = self._out.get(ra)
        if out_a is None:
            out_a = self._out[ra] = list(self.base._out[ra])
        undo["unions"].append((rb, ra, len(out_a), self._size.get(ra, 1),
                               self._label.pop(rb, None)))
        self._parent[rb] = ra
        self._size[ra] = self._size.get(ra, 1) + self._size.get(rb, 1)
        # keep members' accumulated potential unchanged across the merge
        self._doff[rb] = self._racc.get(rb, 0) - self._racc.get(ra, 0)
        out_a.extend(self._out_list(rb))
        return ra

    def pop(self) -> ContractionRecord:
        """Undo the most recent contraction, restoring the previous view.

        Structure (membership, liveness, dead flags) is restored exactly;
        potentials revert to their values at contraction time for the
        separated classes.  The backward pass never consults weights, so
        interleaving pops with further subtraction is unsupported.
        """
        if not self.records:
            raise RecordNotTopError("no contraction to undo")
        if self._compacted:
            raise RecordNotTopError("stack was compacted; it no longer supports undo")
        record = self.records.pop()
        undo = self._undo.pop()
        root, old_label = undo["label"]
        if old_label is None:
            self._label.pop(root, None)
        else:
            self._label[root] = old_label
        del self._parent[undo["label_node"]]
        for rb, ra, out_len, old_size, old_label_b in reversed(undo["unions"]):
            del self._parent[rb]
            self._size[ra] = old_size
            self._doff.pop(rb, None)
            del self._out[ra][out_len:]
            if old_label_b is not None:
                self._label[rb] = old_label_b
        for e in undo["dead"]:
            self._dead[e] = 0
        del self._live_labels[record.supervertex]
        for t in undo["live"]:
            if t in self._absorbed:
                self._absorbed.remove(t)
            else:
                self._live_labels[t] = None
        return record


def project_edge_set(stack: ContractionStack, edges: Iterable[EdgeId]) -> frozenset[EdgeId]:
    """Restrict an edge set to the edges still live under the stack."""
    return frozenset(e for e in edges if not stack.is_dead(e))


def uncontract(stack: ContractionStack, record: ContractionRecord,
               arb: Arborescence, *, validate: bool = True) -> Arborescence:
    """Undo the top contraction and pull a spanning arborescence back.

    ``arb`` must span the current (contracted) view.  It is updated in
    place and returned, so that it spans the pre-contraction view: it keeps
    every cycle edge except the one leaving the member that also owns the
    arborescence's edge out of the supervertex (the doubly covered
    vertex).  The cost is proportional to the cycle, not to ``arb``.  On
    error ``arb`` is left unchanged.
    """
    if not stack.records or stack.records[-1] is not record:
        raise RecordNotTopError("record is not the top of the stack")
    if validate:
        verdict = validate_view_arborescence(stack, arb)
        if not verdict:
            raise NotSpanningError("; ".join(verdict.problems))
    if record.supervertex not in arb.outgoing:
        raise NotSpanningError(f"supervertex {record.supervertex} has no outgoing edge")
    stack.pop()
    outgoing = arb.outgoing
    exit_edge = outgoing.pop(record.supervertex)
    for member, cycle_edge in zip(record.members, record.cycle):
        outgoing[member] = cycle_edge
    doubly_covered = stack.resolve(stack.base.tails[exit_edge])
    outgoing[doubly_covered] = exit_edge
    return arb


def validate_view_arborescence(stack: ContractionStack, arb: Arborescence) -> Verdict:
    """Check that arb spans the stack's current view (used as uncontract pre)."""
    v = Verdict()
    boundary = {stack.resolve(b) for b in stack.base.boundary}
    live = set(stack.live_vertices())
    for vertex, e in arb.outgoing.items():
        if vertex not in live:
            v.problems.append(f"vertex {vertex} is not live")
        elif stack.is_dead(e):
            v.problems.append(f"edge {e} is dead")
        elif stack.tail(e) != vertex:
            v.problems.append(f"edge {e} does not leave {vertex}")
    for vertex in live:
        has = vertex in arb.outgoing
        if vertex in boundary and has:
            v.problems.append(f"boundary vertex {vertex} has an outgoing edge")
        elif vertex not in boundary and not has:
            v.problems.append(f"vertex {vertex} lacks an outgoing edge")
    if not v.problems and _find_cycle_in_map(arb.outgoing, lambda e: stack.head(e)):
        v.problems.append("outgoing map contains a cycle")
    return v


def validate_arborescence(graph: DirectedMultigraph, arb: Arborescence,
                          *, spanning: bool = True) -> Verdict:
    """Validate an arborescence against the base graph.

    With ``spanning`` set, exactly the non-boundary vertices must carry an
    outgoing edge; otherwise any acyclic partial map is accepted.
    """
    v = Verdict()
    for vertex, e in arb.outgoing.items():
        if not (0 <= e < graph.n_edges):
            v.problems.append(f"unknown edge {e}")
        elif graph.tails[e] != vertex:
            v.problems.append(f"edge {e} does not leave {vertex}")
    if spanning:
        for vertex in graph.vertices:
            has = vertex in arb.outgoing
            if vertex in graph.boundary and has:
                v.problems.append(f"boundary vertex {vertex} has an outgoing edge")
            elif vertex not in graph.boundary and not has:
                v.problems.append(f"vertex {vertex} lacks an outgoing edge")
    if not v.problems and _find_cycle_in_map(arb.outgoing, lambda e: graph.heads[e]):
        v.problems.append("outgoing map contains a cycle")
    return v


def _find_cycle_in_map(outgoing: dict[VertexId, EdgeId], head_of) -> bool:
    state: dict[VertexId, int] = {}  # 1 = on current walk, 2 = done
    for start in outgoing:
        if state.get(start):
            continue
        path = []
        x = start
        while x in outgoing and not state.get(x):
            state[x] = 1
            path.append(x)
            x = head_of(outgoing[x])
        if state.get(x) == 1:
            return True
        for y in path:
            state[y] = 2
    return False


def future_edges(graph: DirectedMultigraph, arb: Arborescence, v: VertexId) -> list[EdgeId]:
    """Edges along v's future: follow outgoing edges until none remains."""
    out = []
    seen = set()
    while v in arb.outgoing:
        if v in seen:
            raise NotSpanningError("future contains a cycle")
        seen.add(v)
        e = arb.outgoing[v]
        out.append(e)
        v = graph.heads[e]
    return out


def meet_vertex(graph: DirectedMultigraph, arb: Arborescence,
                u: VertexId, v: VertexId) -> VertexId | None:
    """First vertex where the futures of u and v merge (None if disjoint)."""
    on_u = {u}
    x = u
    while x in arb.outgoing:
        x = graph.heads[arb.outgoing[x]]
        on_u.add(x)
    x = v
    while True:
        if x in on_u:
            return x
        if x not in arb.outgoing:
            return None
        x = graph.heads[arb.outgoing[x]]


def wire_boundary(graph: DirectedMultigraph, kept: Iterable[VertexId]
                  ) -> tuple[DirectedMultigraph, list[EdgeId]]:
    """Identify everything outside `kept` into a single boundary vertex.

    Returns the wired graph plus a per-edge list mapping its edge ids back
    to the source graph's ids.  Edges with both endpoints outside vanish
    (they would be boundary self-loops); parallel edges are preserved.
    Keeping every vertex returns the graph unchanged.
    """
    kept = set(kept)
    if not kept:
        raise DisconnectedKeptSetError("kept set is empty")
    unknown = kept - graph._vset
    if unknown:
        raise UnknownVertexError(f"kept vertices not in graph: {sorted(unknown)[:5]}")
    if kept == graph._vset:
        return graph, list(range(graph.n_edges))
    _check_kept_connected(graph, kept)
    sentinel = graph.id_bound
    vertices = [v for v in graph.vertices if v in kept] + [sentinel]
    edges = []
    origin = []
    for e, t, h in graph.edges():
        t_in, h_in = t in kept, h in kept
        if not t_in and not h_in:
            continue
        edges.append((t if t_in else sentinel, h if h_in else sentinel))
        origin.append(e)
    boundary = (graph.boundary & kept) | {sentinel}
    return DirectedMultigraph(vertices, boundary, edges), origin


def _check_kept_connected(graph: DirectedMultigraph, kept: set[VertexId]) -> None:
    neighbours: dict[VertexId, set[VertexId]] = {v: set() for v in kept}
    for _, t, h in graph.edges():
        if t in kept and h in kept:
            neighbours[t].add(h)
            neighbours[h].add(t)
    seen = set()
    stack = [next(iter(kept))]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(neighbours[x] - seen)
    if seen != kept:
        raise DisconnectedKeptSetError("kept set does not induce a connected subgraph")


# -- JSON instance files -----------------------------------------------

def load_graph_json(path) -> tuple[DirectedMultigraph, dict[EdgeId, float] | None, list[int]]:
    """Load the on-disk instance format.

    Returns (graph, weights-by-internal-id or None, file edge ids in
    order).  Internal EdgeIds follow file order; ``file_ids[e]`` recovers
    the id used in the file.
    """
    with open(path) as fh:
        data = json.load(fh)
    vertices = data["vertices"]
    boundary = data["boundary"]
    seen_ids = set()
    edges = []
    file_ids = []
    weights: dict[EdgeId, float] = {}
    for row in data["edges"]:
        fid = row["id"]
        if fid in seen_ids:
            raise DuplicateEdgeIdError(f"edge id {fid} appears twice")
        seen_ids.add(fid)
        if row["tail"] == row["head"]:
            raise SelfLoopError(f"edge id {fid}")
        if "weight" in row:
            weights[len(edges)] = row["weight"]
        edges.append((row["tail"], row["head"]))
        file_ids.append(fid)
    graph = build_graph(vertices, boundary, edges)
    if weights and len(weights) != graph.n_edges:
        raise DuplicateEdgeIdError("either all edges carry weights or none")
    return graph, (weights or None), file_ids


def dump_graph_json(path, graph: DirectedMultigraph,
                    weights: dict[EdgeId, float] | None = None) -> None:
    rows = []
    for e, t, h in graph.edges():
        row = {"id": e, "tail": t, "head": h}
        if weights is not None:
            row["weight"] = weights[e]
        rows.append(row)
    payload = {"vertices": list(graph.vertices), "boundary": sorted(graph.boundary),
               "edges": rows}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
