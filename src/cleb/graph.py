"""Directed multigraphs with boundary, cycle contraction, and uncontraction.

Edge identity is permanent: contraction never renames an edge, it only
changes how its endpoints resolve.  A :class:`ContractionStack` layers an
undoable quick-find over a base graph (every absorbed node maps straight
to its class root), so a resolve is one lookup, and the backward
(uncontraction) pass can pop records in strict stack order and recover
every intermediate view exactly.  The union tree survives only for the
potentials, and an undo entry keeps only what its record does not.

Both directions cost only the region they touch.  Building a stack is
O(1): a vertex reads the base graph's out-list until a contraction writes
its supervertex a list of exactly the surviving edges.
:func:`uncontract` pulls the arborescence back in place, so a full unwind
is linear in the total size of the contracted cycles.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
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

    Edge e is ``tails[e] -> heads[e]`` (EdgeId = 0..m-1); the graph keeps
    both lists.  Parallel edges are allowed; self-loops are not.  A
    per-edge scan runs only if C-level checks fail; the first bad edge
    decides the error.  Vertex ids from ``id_bound`` (largest id + 1, or
    0) up are free.
    """

    __slots__ = ("vertices", "boundary", "tails", "heads", "_out", "_vset", "id_bound")

    def __init__(self, vertices: Iterable[VertexId], boundary: Iterable[VertexId],
                 tails: list[VertexId], heads: list[VertexId]):
        self.vertices: tuple[VertexId, ...] = tuple(vertices)
        vset = self._vset = frozenset(self.vertices)
        if len(vset) != len(self.vertices):
            raise UnknownVertexError("duplicate vertex ids")
        self.id_bound: VertexId = (max(self.vertices) + 1) if self.vertices else 0
        self.boundary: frozenset[VertexId] = frozenset(boundary)
        if not self.boundary <= vset:
            raise UnknownVertexError("boundary vertex not in vertex set")
        if len(tails) != len(heads):
            raise ValueError("tails and heads differ in length")
        if any(map(operator.eq, tails, heads)) or not vset.issuperset(tails + heads):
            for eid, (t, h) in enumerate(zip(tails, heads)):
                if t == h:
                    raise SelfLoopError(f"edge {eid}: {t} -> {h}")
                if t not in vset or h not in vset:
                    raise UnknownVertexError(f"edge {eid}: {t} -> {h}")
        out: dict[VertexId, list[EdgeId]] = {v: [] for v in self.vertices}
        for eid, t in enumerate(tails):
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
    """Build a spanning-arborescence instance from (tail, head) pairs.

    EdgeIds are assigned in input order and never change afterwards.  The
    boundary must be nonempty.
    """
    g = DirectedMultigraph(vertices, boundary, [t for t, _ in edges], [h for _, h in edges])
    if not g.boundary:
        raise EmptyBoundaryError("an instance needs a nonempty boundary")
    return g


@dataclass(frozen=True, slots=True)
class ContractionRecord:
    """One contraction event: which cycle, into which fresh supervertex.

    ``members`` are the resolved tails of ``cycle`` at record-creation
    time (aligned index-wise), ``removed`` is every edge that died because
    both of its resolved endpoints were absorbed (cycle edges included),
    led by those that left the surviving class root's own out-list.
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

    Membership is quick-find under union by size: ``_root`` maps every
    absorbed node (base vertex or supervertex label) straight to its class
    root, and ``_members`` lists the other nodes of each root's class, so
    a resolve is one dict lookup.  A union relabels the smaller class and
    appends it to the larger one's list; ``pop`` truncates that list and
    relabels back.  The union tree (``_parent``) is kept only for the
    absorbed roots, whose offsets ``potential`` sums along the lineage.
    Liveness is read from these maps: a base vertex is live iff it is
    neither absorbed (in ``_root``) nor a merged class's root (in
    ``_label``), and the live supervertices are exactly ``_label``'s
    values, whose order as integers is their creation order.

    Each class root stores exactly the live out-edges of its supervertex.
    Construction is lazy: a root reads the base graph's out-list until a
    contraction writes it a list of its own.  A walk therefore pays only
    for the region it explores.  An undo entry holds only what the record
    does not: the unions, the root, its previous label, and where the
    root's own list lost edges.
    """

    def __init__(self, graph: DirectedMultigraph):
        self.base = graph
        # absorbed node -> class root (absent: the node is a root)
        self._root: dict[int, int] = {}
        # class root -> the other nodes of its class (absent: none)
        self._members: dict[int, list[int]] = {}
        self._size: dict[int, int] = {}
        # class root -> public supervertex id (absent: root is its own public id)
        self._label: dict[int, int] = {}
        # potential bookkeeping: class-level accumulator at roots, plus the
        # parent and offset of each absorbed root relative to its union
        self._racc: dict[int, object] = {}
        self._parent: dict[int, int] = {}
        self._doff: dict[int, object] = {}
        # class root -> its live out-edges; absent until a contraction leaves
        # the root in charge of a merged class.  Absorbed roots keep theirs
        # for pop.
        self._out: dict[int, list[EdgeId]] = {}
        self.records: list[ContractionRecord] = []
        # (unions, root, old_label, n_kept, dropped) per record
        self._undo: list[tuple] = []
        self._next_label = graph.id_bound

    # -- resolution ---------------------------------------------------

    def resolve(self, v: VertexId) -> VertexId:
        """Current supervertex containing v (v itself if never contracted)."""
        r = self._root.get(v, v)
        return self._label.get(r, r)

    def tail(self, e: EdgeId) -> VertexId:
        return self.resolve(self.base.tails[e])

    def head(self, e: EdgeId) -> VertexId:
        return self.resolve(self.base.heads[e])

    def is_dead(self, e: EdgeId) -> bool:
        """Whether a contraction swallowed both endpoints of e."""
        t, h = self.base.tails[e], self.base.heads[e]
        return self._root.get(t, t) == self._root.get(h, h)

    def live_vertices(self) -> list[VertexId]:
        """Unabsorbed base vertices in base order, then live supervertices
        in creation order."""
        root, label = self._root, self._label
        return ([v for v in self.base.vertices if v not in root and v not in label]
                + sorted(label.values()))

    def out_edges(self, v: VertexId) -> list[EdgeId]:
        """Live outgoing edges of a live supervertex.

        This is the stored list itself, so callers must not mutate it.  A
        supervertex lists its surviving class root's edges first, then
        those of the other members in the order their classes merged.
        """
        root = self._root.get(v, v)
        out = self._out.get(root)
        return self.base._out[root] if out is None else out

    # -- potentials (lazy weight subtraction) --------------------------

    def add_potential(self, v: VertexId, amount) -> None:
        """Record that `amount` was subtracted from every outgoing edge of v."""
        r = self._root.get(v, v)
        self._racc[r] = self._racc.get(r, 0) + amount

    def potential(self, x: VertexId):
        """Total subtraction accumulated along base vertex x's supervertex lineage."""
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
        must not touch the boundary.  Edges with both endpoints absorbed
        die; every surviving edge keeps its id.  The members' out-lists are
        scanned once and their survivors become the new supervertex's list.
        """
        cycle = tuple(cycle)
        if len(cycle) < 2:
            raise NotACycleError("a cycle needs at least two live edges")
        find = self._root.get
        base_tails, heads = self.base.tails, self.base.heads
        roots, head_roots = [], []
        for e in cycle:
            t, h = base_tails[e], heads[e]
            roots.append(find(t, t))
            head_roots.append(find(h, h))
            if roots[-1] == head_roots[-1]:
                raise NotACycleError(f"edge {e} is dead")
        if len(set(roots)) != len(roots):
            raise NotACycleError("cycle repeats a supervertex")
        for i, e in enumerate(cycle):
            if head_roots[i] != roots[(i + 1) % len(cycle)]:
                raise NotACycleError(f"edge {e} does not chain into the next tail")
        tails = [self._label.get(r, r) for r in roots]
        hit = self.base.boundary.intersection(tails)
        if hit:
            raise TouchesBoundaryError(f"cycle passes through boundary {sorted(hit)}")

        own, base_out = self._out, self.base._out
        lists = [own[r] if r in own else base_out[r] for r in roots]
        # union all member classes; `order` lists the members in the order
        # their out-lists concatenate, surviving root first
        unions: list[tuple] = []
        root = roots[0]
        order = [0]
        for i in range(1, len(roots)):
            if self._union(root, roots[i], unions) == root:
                order.append(i)
            else:
                root = roots[i]
                order.insert(0, i)
        # the nodes merged into the root just now; the root's own list has
        # no edge into its old class, so exactly these heads kill its edges
        n_old = next(n for _, ra, n, _ in unions if ra == root)
        joined = set(self._members[root][n_old:])

        live: list[EdgeId] = []
        removed: list[EdgeId] = []
        # positions of the dying edges in the root's own list, for pop
        dropped: list[int] | None = []
        for k, e in enumerate(lists[order[0]]):
            if heads[e] in joined:
                removed.append(e)
                dropped.append(k)
            else:
                live.append(e)
        n_kept = len(live)
        if root not in own:
            dropped = None  # pop goes back to the base list
        for i in order[1:]:
            for e in lists[i]:
                h = heads[e]
                if find(h, h) == root:
                    removed.append(e)
                else:
                    live.append(e)
        own[root] = live

        # tag the merged class with a fresh id; the id joins the class so it
        # resolves like any member
        label = self._next_label
        self._next_label += 1
        self._root[label] = root
        self._members[root].append(label)
        old_label = self._label.get(root)
        self._label[root] = label

        record = ContractionRecord(cycle, tuple(tails), label, tuple(removed))
        self.records.append(record)
        self._undo.append((unions, root, old_label, n_kept, dropped))
        return record

    def _union(self, ra: int, rb: int, unions: list) -> int:
        size = self._size
        sa, sb = size.get(ra, 1), size.get(rb, 1)
        if sa < sb:
            ra, rb = rb, ra
        into = self._members.setdefault(ra, [])
        unions.append((rb, ra, len(into), self._label.pop(rb, None)))
        into.append(rb)
        moved = self._members.pop(rb, ())
        into += moved
        self._root[rb] = ra
        self._root.update(dict.fromkeys(moved, ra))
        size[ra] = sa + sb
        self._parent[rb] = ra
        # keep members' accumulated potential unchanged across the merge
        self._doff[rb] = self._racc.get(rb, 0) - self._racc.get(ra, 0)
        return ra

    def pop(self) -> ContractionRecord:
        """Undo the most recent contraction, restoring the previous view.

        Membership, and with it liveness, and the out-lists are restored
        exactly: the surviving root's list is cut back to its own survivors
        and its dead edges go back to their places.  Potentials revert to
        their values at contraction time for the separated classes.  The backward
        pass never consults weights, so interleaving pops with further
        subtraction is unsupported.
        """
        if not self.records:
            raise RecordNotTopError("no contraction to undo")
        record = self.records.pop()
        unions, root, old_label, n_kept, dropped = self._undo.pop()
        root_of, members, size = self._root, self._members, self._size
        del root_of[record.supervertex]
        members[root].pop()
        if old_label is None:
            del self._label[root]
        else:
            self._label[root] = old_label
        for rb, ra, n_old, old_label_b in reversed(unions):
            moved = members[ra][n_old + 1:]
            if n_old:
                del members[ra][n_old:]
            else:
                del members[ra]
            del root_of[rb]
            if moved:
                members[rb] = moved
                root_of.update(dict.fromkeys(moved, rb))
            n = size[ra] - size.get(rb, 1)
            if n > 1:
                size[ra] = n
            else:
                del size[ra]
            del self._parent[rb]
            del self._doff[rb]
            if old_label_b is not None:
                self._label[rb] = old_label_b
        if dropped is None:
            del self._out[root]
        else:
            out = self._out[root]
            del out[n_kept:]
            for k, e in zip(dropped, record.removed):
                out.insert(k, e)
        return record


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
    if not v.problems and next(functional_cycles(arb.outgoing, stack.head), None):
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
    if not v.problems and next(functional_cycles(arb.outgoing, graph.heads.__getitem__), None):
        v.problems.append("outgoing map contains a cycle")
    return v


def functional_cycles(outgoing: dict[VertexId, EdgeId], head_of) -> Iterator[list[EdgeId]]:
    """Yield each cycle of the map vertex -> outgoing edge, as its edges in order.

    Each component of a functional graph carries at most one cycle, so
    the cycles are disjoint; they come in the map's order of first visit.
    Consume the generator before changing ``outgoing``.
    """
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
            yield [outgoing[y] for y in path[path.index(x):]]
        for y in path:
            state[y] = 2


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
