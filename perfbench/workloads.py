"""The four benchmark workloads: set-up, one op, and each op's output check.

A workload runs as a closed loop: one client, one op after another.  Ops
come in fixed cycles, and a measured run always ends on a whole cycle so
that every run sees the same mix.  An op is one or more parts (library
calls), each timed, then checked outside the timed region:

* ``lattice_msa``: one op is one full MSA; the cycle is the radius ladder;
* ``wired_tree``: one op is one seed of the wired-exhaustion experiment;
* ``local_walks``: one op is one pass over the ladder of (tree, box)
  radii: at each rung a walk + recovery on a tree ball, then an LCRW on
  a lattice box;
* ``monte_carlo``: one op is one pass over the fixed mix of estimators.

Single LCRW and estimator calls vary widely in cost from seed to seed, so
those two workloads group them into ops of one fixed mix; the op times of
a run then form one cluster, and their median and tail are steady.

Every weight or walk seed is derived from the workload seed by
:func:`part_seed`, which does not use ``cleb``'s own hashing, so a change
to the program's hashing cannot change the inputs.

The library is always called through its module attributes
(``algorithms.cleb_walk(...)``), so the traced run's wrappers see every
call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from cleb import algorithms, families, graph, instances, oracle, walks, weights

# sizes per scale; "tiny" is the smoke check's scale
SCALES = {
    "full": {
        "lattice_msa": {"radii": (20, 40, 60)},
        "wired_tree": {"radii": (8, 10, 12), "probes": (1,)},
        "local_walks": {"tree_radii": (10, 12, 14), "lattice_radii": (25, 50, 100)},
        "monte_carlo": {"escape_trials": 50_000, "sandwich_trials": 200,
                        "law_samples": 200_000},
    },
    "tiny": {
        "lattice_msa": {"radii": (4, 6, 8)},
        "wired_tree": {"radii": (3, 4, 5), "probes": (1,)},
        "local_walks": {"tree_radii": (4, 5, 6), "lattice_radii": (5, 8, 12)},
        "monte_carlo": {"escape_trials": 2_000, "sandwich_trials": 60,
                        "law_samples": 20_000},
    },
}


def part_seed(seed: int, workload: str, k: int, i: int) -> int:
    """63-bit seed of part i of op k, a pure function of its arguments."""
    text = f"{seed}:{workload}:{k}:{i}"
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little") >> 1


@dataclass
class PartResult:
    """What a part's check found, for the metrics and the digest."""

    ok: bool
    vertices: int       # vertices of the instance the part ran on
    walk_steps: int     # steps of the walks the part returned
    answers: int        # output values the workload uses
    summary: str        # deterministic text of the part's output
    problem: str = ""


def _digest_edges(edges) -> str:
    return hashlib.sha256(",".join(map(str, sorted(edges))).encode()).hexdigest()[:16]


class Workload:
    name = "?"
    tail_pct = 80.0       # percentile reported as op_s_tail
    trace_cycles = 1      # whole cycles in a traced run

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.cfg = SCALES[scale][self.name]

    def setup(self) -> None:
        """Load fixtures and realize instances (imports are already done)."""

    def cycle(self) -> list:
        """Op specs of one cycle."""
        return [None]

    def parts(self, spec) -> list:
        """Part specs of one op."""
        return [spec]

    def seed_of(self, k: int, i: int) -> int:
        return part_seed(self.seed, self.name, k, i)

    def run(self, k: int, i: int, part):
        """The timed part i of op k."""
        raise NotImplementedError

    def check(self, k: int, i: int, part, out) -> PartResult:
        """The untimed output check of part i of op k."""
        raise NotImplementedError

    def vertices(self, k: int, i: int, part) -> int:
        """Vertices of the instance part i of op k runs on."""
        raise NotImplementedError

    def label(self, part) -> str:
        """Short name of a part, for the traced breakdown."""
        return str(part)


class LatticeMsa(Workload):
    """Full MSA by the walk algorithm on wired lattice:2 boxes."""

    name = "lattice_msa"

    def setup(self) -> None:
        box = families.LatticeBox(2)
        self.real = {r: box.realize(r) for r in self.cfg["radii"]}

    def cycle(self) -> list:
        return list(self.cfg["radii"])

    def label(self, radius) -> str:
        return f"r={radius}"

    def vertices(self, k: int, i: int, radius) -> int:
        return self.real[radius].graph.n_vertices

    def _assign(self, k: int, radius: int):
        return families.coupled_assignment(weights.Exponential(1.0), self.seed_of(k, 0),
                                           self.real[radius])

    def run(self, k: int, i: int, radius):
        return algorithms.cleb_walk_algorithm(self.real[radius].graph, self._assign(k, radius))

    def check(self, k: int, i: int, radius, out) -> PartResult:
        real = self.real[radius]
        arb, walk_records = out
        problems = list(graph.validate_arborescence(real.graph, arb).problems)
        if k == 0:
            again, _ = algorithms.original_cleb(real.graph, self._assign(k, radius))
            if again.edge_set() != arb.edge_set():
                problems.append("original_cleb disagrees with cleb_walk_algorithm")
        canon = [real.canonical[e] for e in arb.outgoing.values()]
        return PartResult(ok=not problems, vertices=real.graph.n_vertices,
                          walk_steps=sum(len(w.steps) for w in walk_records),
                          answers=len(arb.outgoing), problem="; ".join(problems[:3]),
                          summary=f"r={radius} walks={len(walk_records)} "
                                  f"arb={_digest_edges(canon)}")


class WiredTree(Workload):
    """One seed of the wired-exhaustion experiment on tree:2 (criterion 10)."""

    name = "wired_tree"
    trace_cycles = 10

    def setup(self) -> None:
        self.family = families.RegularTree(2)
        self.n_vertices = sum(self._ball_vertices(r) for r in self.cfg["radii"])

    def _ball_vertices(self, radius: int) -> int:
        """Vertices of the wired ball: depths 0..radius-1 plus the boundary
        vertex.  A closed form, so set-up realizes nothing the ops do not;
        the first op's check compares it with the realized balls."""
        return sum(self.family.arity ** d for d in range(radius)) + 1

    def label(self, part) -> str:
        return "radii=" + "/".join(map(str, self.cfg["radii"]))

    def vertices(self, k: int, i: int, part) -> int:
        return self.n_vertices

    def run(self, k: int, i: int, part):
        return families.wired_msa_sequence(self.family, weights.Exponential(1.0),
                                           self.cfg["radii"], self.cfg["probes"],
                                           self.seed_of(k, 0))

    def check(self, k: int, i: int, part, report) -> PartResult:
        problems = self._recheck_by_walks(report) if k == 0 else []
        answers = sum(len(h.by_radius) for h in report.probes)
        text = ";".join(f"{h.probe}:{sorted(h.by_radius.items())}" for h in report.probes)
        return PartResult(ok=not problems, vertices=self.n_vertices, walk_steps=0,
                          answers=answers, summary=text, problem="; ".join(problems))

    def _recheck_by_walks(self, report) -> list[str]:
        """Re-derive each probe edge by a walk from the probe plus
        ``recover_branch`` (the recovery property of criterion 5)."""
        problems = []
        for radius in report.radii:
            real = self.family.realize(radius)
            if real.graph.n_vertices != self._ball_vertices(radius):
                problems.append(f"r={radius}: {real.graph.n_vertices} vertices, "
                                f"expected {self._ball_vertices(radius)}")
            assign = families.coupled_assignment(weights.Exponential(1.0),
                                                 report.master_seed, real)
            for hist in report.probes:
                v = real.probe_map[hist.probe]
                rec = algorithms.cleb_walk(real.graph, assign, v)
                gamma, _ = algorithms.recover_branch(real.graph, rec)
                edge = gamma.outgoing.get(v)
                if edge is None or real.canonical[edge] != hist.by_radius[radius]:
                    problems.append(f"probe {hist.probe} at r={radius}: walk recovery differs")
        return problems


class LocalWalks(Workload):
    """Walk + branch recovery from the root of tree:2 balls, alternating
    with LCRW from the origin of lattice:2 boxes; all realized in set-up."""

    name = "local_walks"
    trace_cycles = 2

    def setup(self) -> None:
        tree = families.RegularTree(2)
        box = families.LatticeBox(2)
        self.trees = {r: tree.realize(r) for r in self.cfg["tree_radii"]}
        self.boxes = {r: box.realize(r, want_canonical=False) for r in self.cfg["lattice_radii"]}
        self.origin = {r: box.origin(real) for r, real in self.boxes.items()}

    def parts(self, spec) -> list:
        return [part for rung in zip(self.cfg["tree_radii"], self.cfg["lattice_radii"])
                for part in (("tree", rung[0]), ("lattice", rung[1]))]

    def label(self, part) -> str:
        return f"{part[0]} r={part[1]}"

    def vertices(self, k: int, i: int, part) -> int:
        kind, r = part
        return (self.trees if kind == "tree" else self.boxes)[r].graph.n_vertices

    def _assign(self, k: int, i: int, radius: int):
        return families.coupled_assignment(weights.Exponential(1.0), self.seed_of(k, i),
                                           self.trees[radius])

    def run(self, k: int, i: int, part):
        kind, r = part
        if kind == "tree":
            real = self.trees[r]
            rec = algorithms.cleb_walk(real.graph, self._assign(k, i, r), real.probe_map[1])
            gamma, _ = algorithms.recover_branch(real.graph, rec)
            return rec, gamma
        trace, _ = walks.lcrw_run(self.boxes[r].graph, self.origin[r], 10**8,
                                  self.seed_of(k, i))
        return trace

    def check(self, k: int, i: int, part, out) -> PartResult:
        kind, r = part
        if kind == "lattice":
            g = self.boxes[r].graph
            problems = [] if out.terminal == walks.HIT_BOUNDARY else [f"lcrw ended {out.terminal}"]
            return PartResult(ok=not problems, vertices=g.n_vertices, walk_steps=len(out.steps),
                              answers=0, problem="; ".join(problems),
                              summary=f"lcrw r={r} steps={len(out.steps)} "
                                      f"edges={_digest_edges(out.exposed)}")
        real = self.trees[r]
        g = real.graph
        rec, gamma = out
        problems = []
        if rec.terminal != algorithms.HIT_BOUNDARY:
            problems.append(f"walk ended {rec.terminal}")
        problems += graph.validate_arborescence(g, gamma, spanning=False).problems
        into_boundary = sum(1 for e in gamma.outgoing.values() if g.heads[e] in g.boundary)
        if into_boundary != 1:
            problems.append(f"{into_boundary} branch edges enter the boundary")
        if k == 0 and r == min(self.cfg["tree_radii"]):
            full, _ = algorithms.cleb_walk_algorithm(g, self._assign(k, i, r))
            if not gamma.edge_set() <= full.edge_set():
                problems.append("recovered branch is not inside the full MSA")
        canon = [real.canonical[e] for e in gamma.outgoing.values()]
        return PartResult(ok=not problems, vertices=g.n_vertices, walk_steps=len(rec.steps),
                          answers=len(gamma.outgoing), problem="; ".join(problems[:3]),
                          summary=f"tree r={r} steps={len(rec.steps)} "
                                  f"branch={_digest_edges(canon)}")


# (glued-tree fixture, start): starts where the walk's escape probability
# exceeds the simple random walk's by many standard errors, so the
# suite's 3-sigma bound has no false failures
ESCAPE_STARTS = (("depth4-binary", 1), ("depth4-mixed-3223", 1),
                 ("depth4-ternary", 1), ("depth3-binary", 1))
SANDWICH_FIXTURE = "sandwich_bounce"
SANDWICH_BETA = 20.0
# criterion 2 states 0.003 at 1M samples; scaling by sqrt(1M / samples)
# keeps the same number of standard errors at the sampled size
LAW_TOLERANCE_AT_1M = 0.003


class MonteCarlo(Workload):
    """Escape, LERW sandwich and arborescence-law estimators."""

    name = "monte_carlo"
    tail_pct = 60.0
    trace_cycles = 3

    def setup(self) -> None:
        trees = dict(instances.glued_tree_fixtures())
        self.escape = [(name, v, trees[name], walks.srw_escape_exact(trees[name], v))
                       for name, v in ESCAPE_STARTS]
        g, w = instances.load_fixture(SANDWICH_FIXTURE)
        self.sandwich = (g, w, instances.load_fixture_meta(SANDWICH_FIXTURE)["start"])
        self.law_graph, _ = instances.load_fixture("distribution_gap")
        meta = instances.load_fixture_meta("distribution_gap")
        self.law_target = sorted(meta["target_arborescence"])
        self.law_closed = {k: float(Fraction(v)) for k, v in meta["closed_forms"].items()}

    def parts(self, spec) -> list:
        # the two escape parts of op k use starts 2k and 2k+1 of the list
        return [("escape", 0), ("sandwich", None), ("law", "exp1"),
                ("escape", 1), ("sandwich", None), ("law", "unif01")]

    def label(self, part) -> str:
        return part[0] if part[0] != "law" else f"law {part[1]}"

    def _escape(self, k: int, part):
        return self.escape[(2 * k + part[1]) % len(self.escape)]

    def vertices(self, k: int, i: int, part) -> int:
        kind = part[0]
        if kind == "escape":
            return self._escape(k, part)[2].n_vertices
        if kind == "sandwich":
            return self.sandwich[0].n_vertices
        return self.law_graph.n_vertices

    def run(self, k: int, i: int, part):
        kind, arg = part
        s = self.seed_of(k, i)
        if kind == "escape":
            _, v, tree, _ = self._escape(k, part)
            return walks.lcrw_escape_mc(tree, v, self.cfg["escape_trials"], s)
        if kind == "sandwich":
            g, w, start = self.sandwich
            return walks.wilson_sandwich_trial(g, w, start, [SANDWICH_BETA],
                                               self.cfg["sandwich_trials"], s)
        return oracle.msa_distribution(self.law_graph, weights.parse_model_spec(arg),
                                       self.cfg["law_samples"], s)

    def check(self, k: int, i: int, part, out) -> PartResult:
        kind, arg = part
        n = self.vertices(k, i, part)
        if kind == "escape":
            name, v, _, exact = self._escape(k, part)
            est, stderr = out
            ok = est >= exact - 3 * stderr
            return PartResult(ok=ok, vertices=n, walk_steps=0, answers=0,
                              summary=f"escape {name}/{v} {est!r}",
                              problem="" if ok else f"escape {est} below {exact} - 3*{stderr}")
        if kind == "sandwich":
            results, _ = out
            freq = results[0].frequency
            ok = freq >= 0.95
            return PartResult(ok=ok, vertices=n, walk_steps=0, answers=0,
                              summary=f"sandwich {freq!r} capped={results[0].capped}",
                              problem="" if ok else f"sandwich frequency {freq} < 0.95")
        report, _ = out
        freq = report.freq_of(self.law_target)
        tol = LAW_TOLERANCE_AT_1M * math.sqrt(1_000_000 / report.samples)
        ok = abs(freq - self.law_closed[arg]) <= tol
        return PartResult(ok=ok, vertices=n, walk_steps=0, answers=0,
                          summary=f"law {arg} {freq!r}",
                          problem="" if ok else f"law {arg}: {freq} vs {self.law_closed[arg]}")


WORKLOADS = {cls.name: cls for cls in (LatticeMsa, WiredTree, LocalWalks, MonteCarlo)}
