"""Deterministic seed derivation and counter-style hashing.

Every random quantity in the package is a pure function of a master seed
plus a key path, so reruns with the same configuration are byte-identical
and lazy sampling does not depend on query order.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BELOW_ONE = math.nextafter(1.0, 0.0)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit mixer."""
    x = (x + _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    x ^= x >> 31
    return x


def _part_to_int(part) -> int:
    if isinstance(part, int):
        if part < 0:
            return mix64(_part_to_int(-part))
        # keys below 2**64 map to themselves; wider keys fold their higher
        # 64-bit limbs in, so no bits are dropped
        h = part & _MASK
        part >>= 64
        while part:
            h = mix64(h ^ mix64(part & _MASK))
            part >>= 64
        return h
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"cannot derive a seed from {type(part).__name__}")


def derive(*parts) -> int:
    """Fold integers/strings into one 64-bit seed, order-sensitively."""
    h = 0
    for part in parts:
        h = mix64(h ^ _part_to_int(part))
    return h


def u01(*parts) -> float:
    """Deterministic uniform in [0, 1) keyed by the given parts."""
    x = derive(*parts) / 2.0**64
    # seeds within 2**10 of 2**64 round up to 1.0 in double precision
    return x if x < 1.0 else _BELOW_ONE


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`mix64` of a uint64 array (a new array)."""
    x = x + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def parts_to_uint64(parts) -> np.ndarray:
    """:func:`_part_to_int` of each nonnegative integer, as a uint64 array:
    keys of 64 bits or more fold their higher limbs in the same order."""
    if not parts or max(parts) >> 64 == 0:
        return np.array(parts, dtype=np.uint64)
    rest = np.array(parts, dtype=object)
    h = (rest & _MASK).astype(np.uint64)
    while (wide := np.flatnonzero(rest := rest >> 64)).size:
        h[wide] = mix64_array(h[wide] ^ mix64_array((rest[wide] & _MASK).astype(np.uint64)))
    return h


def u01_from_bits(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to [0, 1) as :func:`u01` does, clamping the
    hashes that round up to 1.0."""
    x = h.astype(np.float64)
    x /= 2.0**64
    return np.minimum(x, _BELOW_ONE, out=x)
