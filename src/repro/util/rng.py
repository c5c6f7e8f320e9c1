"""Deterministic, keyed randomness.

Every random decision in the library is a *pure function* of a 64-bit seed
and a structured key.  This buys three properties that the reproduction
leans on heavily:

1. **Lazy sampling.**  The state of an edge in a percolated graph is
   computed on demand — ``is edge (u, v) open?`` is answered without ever
   materialising the graph, so the :math:`n`-dimensional hypercube with
   :math:`n 2^{n-1}` edges stays implicit.
2. **Monotone coupling.**  An edge is open iff its uniform variate is
   below ``p``.  Because the variate depends only on ``(seed, edge)`` and
   not on ``p``, raising ``p`` can only open more edges.  Threshold scans
   and several property tests exploit this coupling.
3. **Replayability.**  A trial is identified by ``(master_seed, labels...)``
   and can be re-run bit-for-bit, including across processes, because the
   hash does not depend on ``PYTHONHASHSEED`` or dict ordering.

The hash is BLAKE2b keyed with the seed; keys are serialised with
:func:`repr`, which is stable for the vertex types used by this library
(ints, strings, and nested tuples of those).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

__all__ = [
    "MAX_SEED",
    "derive_seed",
    "edge_coin",
    "uniform_for",
    "uniform_hasher",
    "uniforms_for",
]

#: Seeds are 64-bit unsigned integers.
MAX_SEED = 2**64 - 1

_SCALE = float(2**64)


def _digest(seed: int, key: tuple[Any, ...]) -> bytes:
    """Return an 8-byte keyed digest of ``key`` under ``seed``.

    Raises :class:`ValueError` if ``seed`` is outside ``[0, MAX_SEED]``.
    """
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    hasher = hashlib.blake2b(
        repr(key).encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little"),
    )
    return hasher.digest()


def uniform_for(seed: int, *key: Any) -> float:
    """Return a deterministic uniform variate in ``[0, 1)`` for ``key``.

    The variate is a pure function of ``(seed, key)``: calling it twice
    with the same arguments always yields the same value, and distinct
    keys yield (cryptographically) independent values.

    >>> u = uniform_for(7, "edge", (0, 1))
    >>> u == uniform_for(7, "edge", (0, 1))
    True
    >>> 0.0 <= u < 1.0
    True
    """
    return int.from_bytes(_digest(seed, key), "little") / _SCALE


def _keyed_state(seed: int) -> Any:
    """Return the BLAKE2b state keyed with ``seed``, to copy per key.

    Keying BLAKE2b costs a compression; copying the keyed state does
    not, and hashing into a copy is byte-identical to hashing each key
    from scratch.
    """
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))


def uniform_hasher(seed: int) -> Callable[[bytes], float]:
    """Return :func:`uniform_for` under ``seed`` for keys hashed on demand.

    The returned function takes a key already serialised the way
    :func:`uniform_for` serialises it — ``repr(key).encode("utf-8")``
    for the key tuple ``(tag, *parts)`` — and returns exactly
    ``uniform_for(seed, *key)``, hashing into a copy of the seed's
    keyed state.  For searches that discover the keys they need one at
    a time (a lazy threshold search hashes only the edges it reaches).

    >>> key = ("edge", (0, 1))
    >>> uniform_hasher(7)(repr(key).encode("utf-8")) == uniform_for(7, *key)
    True
    """
    base = _keyed_state(seed)

    def uniform(data: bytes) -> float:
        hasher = base.copy()
        hasher.update(data)
        return int.from_bytes(hasher.digest(), "little") / _SCALE

    return uniform


def uniforms_for(seed: int, encoded_keys: Iterable[bytes]) -> np.ndarray:
    """Return :func:`uniform_for` over many keys under one seed, as floats.

    The batch form of :func:`uniform_hasher`, over the same copied
    keyed state: entry ``i`` equals ``uniform_for(seed, *key_i)``
    exactly.  Callers hashing the same keys under many seeds (one
    coupled sweep per trial) serialise them once and pay only the
    hashing here.

    >>> key = ("edge", (0, 1))
    >>> levels = uniforms_for(7, [repr(key).encode("utf-8")])
    >>> float(levels[0]) == uniform_for(7, *key)
    True
    """
    base = _keyed_state(seed)
    digests = []
    for data in encoded_keys:
        hasher = base.copy()
        hasher.update(data)
        digests.append(hasher.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8") / _SCALE


def edge_coin(seed: int, edge: Any, p: float) -> bool:
    """Flip the deterministic coin for ``edge``: open with probability ``p``.

    The coin is *monotone-coupled* in ``p``: for fixed ``(seed, edge)``,
    if ``edge_coin(seed, edge, p1)`` is ``True`` and ``p2 >= p1``, then
    ``edge_coin(seed, edge, p2)`` is also ``True``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p!r}")
    return uniform_for(seed, "edge", edge) < p


def derive_seed(seed: int, *key: Any) -> int:
    """Derive a child 64-bit seed from ``seed`` and a structured ``key``.

    Used to give every trial of an experiment its own independent random
    stream:

    >>> s0 = derive_seed(42, "E1", "trial", 0)
    >>> s1 = derive_seed(42, "E1", "trial", 1)
    >>> s0 != s1
    True
    """
    return int.from_bytes(_digest(seed, ("derive",) + key), "little")
