"""Weight models, lazy subtraction accounting, and genericity guarding.

Base weights are sampled per edge on first use, or for a whole graph in
one bit-identical vectorized pass before a full solve.  Effective weights
are never stored: an edge's is its base weight minus the potential
accumulated along its tail's supervertex lineage (one subtraction per
comparison, no error build-up).  Every comparison site funnels through the
assignment's tie guard, which records any pair of values closer than the
tolerance and aborts the run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (
    GenericityViolationError,
    NoOutgoingEdgeError,
    TieDetectedError,
)
from .graph import ContractionStack, DirectedMultigraph, EdgeId, VertexId
from .util import derive, mix64_array, parts_to_uint64, u01, u01_from_bits

DEFAULT_TOLERANCE = 1e-12


class WeightModel:
    """Base for weight models; subclasses provide per-edge sampling."""

    spec = "?"

    def sample(self, seed: int, key: int):
        raise NotImplementedError

    def sample_many(self, seed: int, keys: np.ndarray) -> list | None:
        """``sample`` of every uint64 key in one pass, or None if per edge only."""
        return None

    def is_exact(self) -> bool:
        return False


class Exponential(WeightModel):
    """i.i.d. Exponential(rate) weights, deterministic per (seed, key)."""

    spec = "exp1"

    def __init__(self, rate: float = 1.0):
        self.rate = rate

    def sample(self, seed: int, key: int) -> float:
        return -math.log1p(-u01(seed, key)) / self.rate

    def sample_many(self, seed: int, keys: np.ndarray) -> list[float]:
        # numpy's log1p differs from math.log1p in the last bit on some inputs
        log1p, rate = math.log1p, self.rate
        return [-log1p(-u) / rate for u in Uniform01().sample_many(seed, keys)]


class Uniform01(WeightModel):
    """i.i.d. Uniform(0, 1) weights, deterministic per (seed, key)."""

    spec = "unif01"

    def sample(self, seed: int, key: int) -> float:
        return u01(seed, key)

    def sample_many(self, seed: int, keys: np.ndarray) -> list[float]:
        """u01(seed, key) per uint64 key, as mix64(derive(seed) ^ key)."""
        return u01_from_bits(mix64_array(keys ^ np.uint64(derive(seed)))).tolist()


class Fixed(WeightModel):
    """Explicit per-edge weights; exact arithmetic when values are rational.

    Values given as int or Fraction flow through comparisons exactly, which
    makes genericity decidable for hand-built instances.
    """

    spec = "fixed"

    def __init__(self, values: dict[EdgeId, object]):
        self.values = dict(values)

    def sample(self, seed: int, key: int):
        return self.values[key]

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.values.values())


class BoltzmannConductance(WeightModel):
    """Conductances exp(-beta * w) over fixed base weights.

    This is the transition-weight model for the loop-erased walk bridge;
    larger beta concentrates the walk on minimum-weight edges.
    """

    spec = "boltzmann"

    def __init__(self, base: dict[EdgeId, float], beta: float):
        self.base = dict(base)
        self.beta = beta

    def sample(self, seed: int, key: int) -> float:
        return math.exp(-self.beta * float(self.base[key]))


def parse_model_spec(spec: str) -> WeightModel:
    """Parse CLI model strings: exp1 | unif01 | fixed:<path> | boltzmann:<path>:<beta>."""
    from .errors import ConfigError

    if spec == "exp1":
        return Exponential(1.0)
    if spec == "unif01":
        return Uniform01()
    if spec.startswith("fixed:"):
        return Fixed(_load_weight_file(spec[len("fixed:"):]))
    if spec.startswith("boltzmann:"):
        rest = spec[len("boltzmann:"):]
        path, _, beta = rest.rpartition(":")
        if not path:
            raise ConfigError(f"bad model spec {spec!r}")
        return BoltzmannConductance(_load_weight_file(path), float(beta))
    raise ConfigError(f"unknown weight model {spec!r}")


def _load_weight_file(path: str) -> dict[EdgeId, float]:
    import json

    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "edges" in data:
        return {i: row["weight"] for i, row in enumerate(data["edges"])}
    if isinstance(data, dict):
        return {int(k): v for k, v in data.items()}
    raise GenericityViolationError(f"unrecognized weight file {path}")


class WeightAssignment:
    """Per-edge base weights bound to a keying scheme and a tie guard.

    ``key_of`` maps an EdgeId to the integer actually hashed, which is how
    coupled families keep one weight per canonical edge across radii.
    The cache starts as a dict filled lazily by ``base``;
    :meth:`sample_all` replaces it with a dense list indexed by EdgeId.
    """

    def __init__(self, model: WeightModel, seed: int,
                 key_of: Callable[[EdgeId], int] | None = None,
                 tolerance: float = DEFAULT_TOLERANCE):
        self.model = model
        self.seed = seed
        self.key_of = key_of
        self.tolerance = tolerance
        self.exact = model.is_exact()
        self.collisions: list[tuple[object, object, str]] = []
        self._cache: dict[EdgeId, object] | list = {}

    def base(self, e: EdgeId):
        try:
            return self._cache[e]
        except KeyError:
            key = self.key_of(e) if self.key_of is not None else e
            value = self.model.sample(self.seed, key)
            self._cache[e] = value
            return value

    def sample_all(self, n_edges: int) -> None:
        """Cache EdgeIds 0..n_edges-1 as a dense list, in one vectorized pass;
        keys of 64 bits or more fold as :func:`util.derive` folds them.
        Fixed and conductance models and negative keys stay lazy."""
        keys = range(n_edges) if self.key_of is None else list(map(self.key_of, range(n_edges)))
        if keys and min(keys) < 0:
            return
        values = self.model.sample_many(self.seed, parts_to_uint64(keys))
        if values is not None:
            self._cache = values

    def effective(self, stack: ContractionStack, e: EdgeId):
        return self.base(e) - stack.potential(stack.base.tails[e])

    def require_distinct(self, a, b, context: str = "") -> None:
        """Tie guard: abort when two compared values are within tolerance."""
        if self.exact:
            close = a == b
        else:
            close = abs(a - b) <= self.tolerance * max(1.0, abs(a), abs(b))
        if close:
            self.collisions.append((a, b, context))
            raise TieDetectedError(a, b, context)


def sample_weights(model: WeightModel, graph: DirectedMultigraph, seed: int,
                   tolerance: float = DEFAULT_TOLERANCE) -> WeightAssignment:
    """Materialize an assignment for a finite graph.

    Random models are deterministic per (seed, EdgeId) independent of the
    order edges get queried.  Fixed models are screened for exact ties
    up front.
    """
    if isinstance(model, Fixed):
        missing = [e for e in range(graph.n_edges) if e not in model.values]
        if missing:
            raise GenericityViolationError(f"fixed model lacks weights for edges {missing[:5]}")
        _screen_fixed_ties(model)
    return WeightAssignment(model, seed, tolerance=tolerance)


def _screen_fixed_ties(model: Fixed) -> None:
    by_value: dict[object, EdgeId] = {}
    for e, v in sorted(model.values.items()):
        v = Fraction(v) if isinstance(v, int) else v
        if v in by_value:
            raise GenericityViolationError(
                f"edges {by_value[v]} and {e} share the weight {v!r}")
        by_value[v] = e


def min_out_subtract(assign: WeightAssignment, stack: ContractionStack,
                     v: VertexId) -> tuple[EdgeId, object]:
    """Reveal v's minimum-weight live outgoing edge and subtract its weight.

    Afterwards the returned edge has effective weight exactly zero and all
    other outgoing edges of v stay strictly positive; repeating without an
    intervening contraction returns the same edge with pi = 0.
    """
    base = assign.base
    tails = stack.base.tails
    # a supervertex lists each member's edges together: one potential per run
    prev_t = p = None
    best_e = None
    best_w = None
    second_w = None
    for e in stack.out_edges(v):
        t = tails[e]
        if t != prev_t:
            p = stack.potential(t)
            prev_t = t
        w = base(e) - p
        if best_w is None or w < best_w:
            second_w = best_w
            best_w = w
            best_e = e
        elif second_w is None or w < second_w:
            second_w = w
    if best_e is None:
        raise NoOutgoingEdgeError(f"supervertex {v} has no live outgoing edge")
    if second_w is not None:
        assign.require_distinct(best_w, second_w, f"min out of {v}")
    if best_w != 0:
        stack.add_potential(v, best_w)
    return best_e, best_w


def rational_jitter(rng, scale: int = 1 << 20) -> Fraction:
    """Small positive rational used to refresh genericity after perturbation."""
    return Fraction(rng.randrange(1, scale), scale * 4)
