"""Deterministic random-number management.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  Experiments derive *independent* child
streams from a single root seed via :class:`RngFactory`, so changing the
number of sequences or models never perturbs the randomness of the others
(counter-based sub-seeding, not sequential draws from one stream).
"""

from __future__ import annotations

import functools
from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a nondeterministic generator; an ``int`` a seeded one;
    an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(root_seed: int, n: int, *, stream: int = 0) -> np.ndarray:
    """Derive ``n`` independent 63-bit child seeds from ``root_seed``.

    Uses :class:`numpy.random.SeedSequence` spawning so children are
    statistically independent and stable across numpy versions.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    n:
        Number of child seeds to derive.
    stream:
        Namespace so different subsystems (e.g. dataset vs. detector) get
        disjoint children from the same root.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(stream,))
    children = ss.spawn(n)
    return np.array([c.generate_state(1, dtype=np.uint64)[0] >> 1 for c in children], dtype=np.int64)


class RngFactory:
    """Hierarchical deterministic RNG factory.

    A factory is constructed from a root seed; ``child(*key)`` returns a
    generator deterministically derived from the root and the key parts.
    The same key always yields the same stream, and distinct keys yield
    independent streams.

    Examples
    --------
    >>> f = RngFactory(1234)
    >>> g1 = f.child("dataset", 0)
    >>> g2 = f.child("dataset", 1)
    >>> g1b = RngFactory(1234).child("dataset", 0)
    >>> float(g1.random()) == float(g1b.random())
    True
    """

    def __init__(self, root_seed: int):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = int(root_seed)

    def child(self, *key: Union[str, int]) -> np.random.Generator:
        """Return a generator for the given hierarchical key."""
        spawn_key = tuple(self._encode(part) for part in key)
        ss = np.random.SeedSequence(entropy=self.root_seed, spawn_key=spawn_key)
        return np.random.default_rng(ss)

    def child_seed(self, *key: Union[str, int]) -> int:
        """Return a stable integer seed for the given key (for pickling/logging)."""
        spawn_key = tuple(self._encode(part) for part in key)
        ss = np.random.SeedSequence(entropy=self.root_seed, spawn_key=spawn_key)
        return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)

    @staticmethod
    @functools.lru_cache(maxsize=4096, typed=True)
    def _encode(part: Union[str, int]) -> int:
        if isinstance(part, (int, np.integer)):
            value = int(part)
            if value < 0:
                raise ValueError(f"integer key parts must be >= 0, got {value}")
            return value
        if isinstance(part, str):
            # Stable 32-bit FNV-1a hash; python's hash() is salted per process.
            h = 2166136261
            for byte in part.encode("utf-8"):
                h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
            return h
        raise TypeError(f"key parts must be str or int, got {type(part).__name__}")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(root_seed={self.root_seed})"
