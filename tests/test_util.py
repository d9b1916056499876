import math

import numpy as np

from cleb import oracle, util
from cleb.families import LatticeBox
from cleb.util import derive, u01
from cleb.weights import Exponential


def test_derive_keys_below_two_to_64_keep_their_values():
    assert derive(7, 0) == 13309476754707697221
    assert derive(7, 5) == 9853691929716327830
    assert derive(7, 2**64 - 1) == 12225420764836534112
    assert derive(7, -3) == 12359040808785015427
    assert derive(7, "escape") == 8552769060408780220
    assert derive(20250810, "escape", "depth2", 3) == 17117931840764767545


def test_derive_wide_integer_keys_do_not_truncate():
    assert derive(7, 2**64 + 5) != derive(7, 5)
    assert derive(7, -(2**64 + 5)) != derive(7, -5)
    wide = {derive(7, 2**64 + k) for k in range(1000)}
    narrow = {derive(7, k) for k in range(1000)}
    assert len(wide) == 1000 and not wide & narrow
    # lattice:4 canonical edge ids are 87 bits wide
    canonical = LatticeBox(4).realize(3).canonical
    assert len({derive(11, c) for c in canonical}) == len(set(canonical))


def test_u01_stays_below_one(monkeypatch):
    monkeypatch.setattr(util, "derive", lambda *parts: 2**64 - 1)
    x = u01(3, 4)
    assert x < 1.0
    assert math.isfinite(Exponential().sample(3, 4))
    monkeypatch.setattr(util, "derive", lambda *parts: 2**63)
    assert u01(3, 4) == 0.5


def test_vectorized_u01_stays_below_one(monkeypatch):
    top = np.array([2**64 - 1, 2**63], dtype=np.uint64)
    assert list(util.u01_from_bits(top)) == [math.nextafter(1.0, 0.0), 0.5]
    monkeypatch.setattr(oracle, "mix64_array", lambda x: np.full(x.shape, 2**64 - 1,
                                                                   dtype=np.uint64))
    w = oracle._sample_weight_matrix(Exponential(), 3, np.arange(4, dtype=np.uint64), 5)
    assert w.shape == (4, 5) and np.isfinite(w).all()


def test_vectorized_key_fold_is_the_scalar_fold():
    parts = [0, 5, 2**64 - 1, 2**64, 2**64 + 5, 2**128, 2**128 + 2**64 + 9, 3 << 200]
    assert util.parts_to_uint64(parts).tolist() == [util._part_to_int(p) for p in parts]
    assert util.parts_to_uint64(parts[:3]).tolist() == parts[:3]
